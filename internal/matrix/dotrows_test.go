package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dotRowsInputs returns value generators for the bit-identity test:
// Gaussian entries, and adversarial ones whose partial sums depend on the
// summation order (denormals, signed zeros, magnitudes 1e±150 apart that
// cancel or absorb), so any reordering inside the kernel shows as a
// different bit pattern.
func dotRowsInputs(rng *rand.Rand) map[string]func() float64 {
	adversarial := []float64{
		0, math.Copysign(0, -1), 1, -1, 1e150, -1e150, 1e-150, -1e-150,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3e-310, 1 + 0x1p-52,
	}
	return map[string]func() float64{
		"gaussian":    rng.NormFloat64,
		"adversarial": func() float64 { return adversarial[rng.Intn(len(adversarial))] },
		"mixed": func() float64 {
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(301)-150))
		},
	}
}

// TestDotRows4MatchesDot pins the contract the scan backends rank by:
// every row's score equals Dot's with ==, at every window of panels of
// 0…9 rows (so windows start at offsets that are not multiples of four
// and the rows a blocked loop leaves to Dot sit beside kernel rows).
func TestDotRows4MatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for name, next := range dotRowsInputs(rng) {
		for d := 1; d <= 40; d++ {
			for rows := 0; rows <= 9; rows++ {
				x, panel := make([]float64, d), make([]float64, rows*d)
				for i := range x {
					x[i] = next()
				}
				for i := range panel {
					panel[i] = next()
				}
				for lo := 0; lo+4 <= rows; lo++ {
					s0, s1, s2, s3 := DotRows4(x, panel[lo*d:(lo+4)*d])
					for r, got := range [4]float64{s0, s1, s2, s3} {
						want := Dot(x, panel[(lo+r)*d:(lo+r+1)*d])
						// Bit equality, except that NaN != NaN (1e150·1e150 − itself).
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s d=%d rows=%d: row %d scored %v (%#x), Dot says %v (%#x)",
								name, d, rows, lo+r, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

func TestDotRows4RejectsMisshapenPanel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic for a panel that is not 4·len(x) long")
		}
	}()
	DotRows4(make([]float64, 3), make([]float64, 11))
}

var dotRowsSink float64

// BenchmarkDotRows times the scan kernel alone, per row: an L2-resident
// panel shows the arithmetic (add-chain overlap), a panel several times
// the last-level cache shows what is left of it once rows stream from
// memory. "dot" is the one-row-at-a-time loop the kernel replaced.
func BenchmarkDotRows(b *testing.B) {
	panels := []struct {
		name   string
		floats int
	}{{"L2", 1 << 17}, {"stream", 1 << 24}}
	for _, p := range panels {
		data := make([]float64, p.floats)
		rng := rand.New(rand.NewSource(1))
		for i := range data {
			data[i] = rng.Float64()
		}
		for _, d := range []int{16, 32, 64} {
			x, rows := data[:d], p.floats/d
			b.Run(fmt.Sprintf("%s/d=%d/rows4", p.name, d), func(b *testing.B) {
				var s float64
				for i := 0; i < b.N; i++ {
					for r := 0; r+4 <= rows; r += 4 {
						s0, s1, s2, s3 := DotRows4(x, data[r*d:(r+4)*d])
						s += s0 + s1 + s2 + s3
					}
				}
				dotRowsSink = s
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
			b.Run(fmt.Sprintf("%s/d=%d/dot", p.name, d), func(b *testing.B) {
				var s float64
				for i := 0; i < b.N; i++ {
					for r := 0; r < rows; r++ {
						s += Dot(x, data[r*d:(r+1)*d])
					}
				}
				dotRowsSink = s
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}

// TestAxpy4MatchesAxpy pins Axpy4 to four successive Axpy calls with ==
// on inputs whose partial sums depend on the summation order.
func TestAxpy4MatchesAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for name, next := range dotRowsInputs(rng) {
		for d := 0; d <= 40; d++ {
			var a [4]float64
			var x [4][]float64
			for i := range x {
				a[i] = next()
				x[i] = make([]float64, d)
				for j := range x[i] {
					x[i][j] = next()
				}
			}
			got, want := make([]float64, d), make([]float64, d)
			for j := range got {
				got[j] = next()
			}
			copy(want, got)
			Axpy4(a[0], a[1], a[2], a[3], x[0], x[1], x[2], x[3], got)
			for i := range x {
				Axpy(a[i], x[i], want)
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) &&
					!(math.IsNaN(got[j]) && math.IsNaN(want[j])) {
					t.Fatalf("%s d=%d: element %d is %v, four Axpy give %v", name, d, j, got[j], want[j])
				}
			}
		}
	}
}
