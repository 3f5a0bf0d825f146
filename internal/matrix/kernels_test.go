package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelInputs returns value generators for the kernel bit-identity tests:
// Gaussian entries; magnitudes spread over 1e±150, so products overflow,
// underflow and absorb one another; and a mix of the IEEE special cases
// (±0, subnormals, ±Inf, NaN) among ordinary values.
func kernelInputs(rng *rand.Rand) map[string]func() float64 {
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1 + 0x1p-52, 1e150, -1e150, 1e-150, -1e-150,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3e-310, -2.5e-308,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	return map[string]func() float64{
		"gaussian": rng.NormFloat64,
		"mixed": func() float64 {
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(301)-150))
		},
		"special": func() float64 {
			if rng.Intn(2) == 0 {
				return rng.NormFloat64()
			}
			return special[rng.Intn(len(special))]
		},
	}
}

// sameBits reports whether a and b have the same bit pattern, counting
// any two NaNs as equal: x86 passes on the payload of whichever NaN
// operand comes first, and Go does not fix the operand order of an add.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// offsetSlice returns n values from next in a slice that starts off
// elements into its allocation, so the vector loads cross 32-byte lines.
func offsetSlice(next func() float64, off, n int) []float64 {
	buf := make([]float64, off+n)
	for i := range buf {
		buf[i] = next()
	}
	return buf[off:]
}

func compareBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), Go kernel says %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkPanelKernels runs each dispatched kernel (AVX body plus Go tail
// where AVX is present) and its Go body on the same inputs: c columns,
// m entries of q (an odd m leaves a last entry the kernels must not
// touch), every slice starting off elements into its allocation.
func checkPanelKernels(t testing.TB, next func() float64, c, m, off int) {
	t.Helper()
	rows := func(k, n int) [][]float64 {
		out := make([][]float64, k)
		for i := range out {
			out[i] = offsetSlice(next, off, n)
		}
		return out
	}
	q, b := rows(4, m), rows(4, c)
	what := fmt.Sprintf("c=%d m=%d off=%d", c, m, off)

	s := offsetSlice(next, off, m*c)
	got, want := append([]float64(nil), s...), append([]float64(nil), s...)
	addMul2x4(got, q[0], q[1], q[2], q[3], b[0], b[1], b[2], b[3])
	addMul2x4Go(want, q[0], q[1], q[2], q[3], b[0], b[1], b[2], b[3], 0)
	compareBits(t, "addMul2x4 "+what, got, want)

	g := offsetSlice(next, off, c*c)
	got, want = append([]float64(nil), g...), append([]float64(nil), g...)
	accumGram4(got, b[0], b[1], b[2], b[3])
	accumGram4Go(want, b[0], b[1], b[2], b[3])
	for i := 0; i < c; i++ { // the lower triangle is undefined
		compareBits(t, fmt.Sprintf("accumGram4 row %d %s", i, what), got[i*c+i:(i+1)*c], want[i*c+i:(i+1)*c])
	}

	s = offsetSlice(next, off, m*c)
	gotB, wantB := rows(4, c), make([][]float64, 4)
	for i := range gotB {
		wantB[i] = append([]float64(nil), gotB[i]...)
	}
	subMul4x2(gotB[0], gotB[1], gotB[2], gotB[3], q[0], q[1], q[2], q[3], s)
	subMul4x2Go(wantB[0], wantB[1], wantB[2], wantB[3], q[0], q[1], q[2], q[3], s, 0)
	for i := range gotB {
		compareBits(t, fmt.Sprintf("subMul4x2 row %d %s", i, what), gotB[i], wantB[i])
	}

	y := offsetSlice(next, off, c)
	gotY, wantY := append([]float64(nil), y...), append([]float64(nil), y...)
	a0, a1, a2, a3 := next(), next(), next(), next()
	Axpy4(a0, a1, a2, a3, b[0], b[1], b[2], b[3], gotY)
	axpy4Go(a0, a1, a2, a3, b[0], b[1], b[2], b[3], wantY, 0)
	compareBits(t, "Axpy4 "+what, gotY, wantY)

	a4 := [4]float64{next(), next(), next(), next()}
	gotB, wantB = rows(4, c), make([][]float64, 4)
	for i := range gotB {
		wantB[i] = append([]float64(nil), gotB[i]...)
	}
	axpy4Rows(&a4, b[0], gotB[0], gotB[1], gotB[2], gotB[3])
	axpy4RowsGo(&a4, b[0], wantB[0], wantB[1], wantB[2], wantB[3], 0)
	for i := range gotB {
		compareBits(t, fmt.Sprintf("axpy4Rows row %d %s", i, what), gotB[i], wantB[i])
	}
}

// TestPanelKernelsMatchGo pins the contract the factorization's goldens
// rest on: the AVX kernels and the Go kernels (addMul2x4, gram4 behind
// accumGram4, subMul4x2, Axpy4, axpy4Rows) agree bit for bit at every
// width 1…70 (every residue mod 4, so every tail length), at every
// misalignment and on inputs that make any reordering or fused
// multiply-add show.
func TestPanelKernelsMatchGo(t *testing.T) {
	if !useAVX {
		t.Log("no AVX: the dispatched kernels are the Go kernels")
	}
	rng := rand.New(rand.NewSource(51))
	for name, next := range kernelInputs(rng) {
		t.Run(name, func(t *testing.T) {
			for c := 1; c <= 70; c++ {
				for off := 0; off < 4; off++ {
					checkPanelKernels(t, next, c, 4+off%2, off)
				}
			}
		})
	}
}

// refAccumQtB4, refSubQS4 and refAccumGram4 restate the panel kernels
// element by element, every product converted to float64 so no compiler
// fuses it into the add after it.
func refAccumQtB4(s []float64, q, b [4][]float64) {
	c := len(b[0])
	for i := range q[0] {
		for j := 0; j < c; j++ {
			s[i*c+j] += float64(q[0][i]*b[0][j]) + float64(q[1][i]*b[1][j]) + float64(q[2][i]*b[2][j]) + float64(q[3][i]*b[3][j])
		}
	}
}

func refSubQS4(s []float64, q, b [4][]float64) {
	c, m := len(b[0]), len(q[0])
	for t := range b {
		for j := 0; j < c; j++ {
			i := 0
			for ; i+2 <= m; i += 2 {
				b[t][j] -= float64(q[t][i]*s[i*c+j]) + float64(q[t][i+1]*s[(i+1)*c+j])
			}
			if i < m {
				b[t][j] -= float64(q[t][i] * s[i*c+j])
			}
		}
	}
}

func refAccumGram4(g []float64, x [4][]float64) {
	k := len(x[0])
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			g[i*k+j] += float64(x[0][i]*x[0][j]) + float64(x[1][i]*x[1][j]) + float64(x[2][i]*x[2][j]) + float64(x[3][i]*x[3][j])
		}
	}
}

// TestProjectionKernelsMatchReference holds accumQtB4, subQS4 and
// accumGram4 — kernel calls plus their odd-column and tail code — to the
// element-wise references, for basis widths 1…9 and panel widths 1…37.
func TestProjectionKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for name, next := range kernelInputs(rng) {
		for m := 1; m <= 9; m++ {
			for c := 1; c <= 37; c++ {
				var q, b [4][]float64
				for i := range q {
					q[i] = offsetSlice(next, i, m)
					b[i] = offsetSlice(next, i, c)
				}
				what := fmt.Sprintf("%s m=%d c=%d", name, m, c)

				s := offsetSlice(next, 1, m*c)
				got, want := append([]float64(nil), s...), append([]float64(nil), s...)
				accumQtB4(got, q[0], q[1], q[2], q[3], b[0], b[1], b[2], b[3])
				refAccumQtB4(want, q, b)
				compareBits(t, "accumQtB4 "+what, got, want)

				var gotB, wantB [4][]float64
				for i := range b {
					gotB[i] = append([]float64(nil), b[i]...)
					wantB[i] = append([]float64(nil), b[i]...)
				}
				subQS4(s, q[0], q[1], q[2], q[3], gotB[0], gotB[1], gotB[2], gotB[3])
				refSubQS4(s, q, wantB)
				for i := range b {
					compareBits(t, fmt.Sprintf("subQS4 row %d %s", i, what), gotB[i], wantB[i])
				}

				g := offsetSlice(next, 0, c*c)
				gotG, wantG := append([]float64(nil), g...), append([]float64(nil), g...)
				accumGram4(gotG, b[0], b[1], b[2], b[3])
				refAccumGram4(wantG, b)
				for i := 0; i < c; i++ { // the lower triangle is undefined
					compareBits(t, fmt.Sprintf("accumGram4 row %d %s", i, what), gotG[i*c+i:(i+1)*c], wantG[i*c+i:(i+1)*c])
				}
			}
		}
	}
}

// FuzzPanelKernels checks TestPanelKernelsMatchGo's property on inputs
// drawn from raw bytes: the first three pick the width, the length of q
// and the misalignment, and the rest, eight bytes at a time, are the
// float64 bit patterns the kernels see (cycled when short, so NaN
// payloads, subnormals and infinities arrive as the fuzzer finds them).
func FuzzPanelKernels(f *testing.F) {
	f.Add([]byte{31, 3, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		c, m, off := 1+int(data[0])%70, 1+int(data[1])%6, int(data[2])%4
		words := data[3:]
		i := 0
		next := func() float64 {
			if len(words) < 8 {
				i++
				return float64(i)
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(words[(8*i)%(len(words)&^7):]))
			i++
			return v
		}
		checkPanelKernels(t, next, c, m, off)
	})
}

// BenchmarkPanelKernels reports ns per multiply-add of the AVX kernels and
// the Go kernels at the panel widths of the factorizations (32 and 64),
// over a 224-entry basis row — the projection shape at k′ = 32, q = 6.
func BenchmarkPanelKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	const m = 224
	for _, c := range []int{32, 64} {
		var q, x [4][]float64
		for i := range q {
			q[i] = offsetSlice(rng.NormFloat64, 0, m)
			x[i] = offsetSlice(rng.NormFloat64, 0, c)
		}
		s := offsetSlice(rng.NormFloat64, 0, m*c)
		a4 := [4]float64{1e-9, -1e-9, 2e-9, -2e-9}
		impls := []struct {
			name        string
			addMul      func()
			gram        func()
			subMul      func()
			axpy4       func()
			axpy4Rows   func()
			unavailable bool
		}{
			{
				name:        "avx",
				unavailable: !useAVX,
				addMul:      func() { addMul2x4(s, q[0], q[1], q[2], q[3], x[0], x[1], x[2], x[3]) },
				gram:        func() { accumGram4(s[:c*c], x[0], x[1], x[2], x[3]) },
				subMul:      func() { subMul4x2(x[0], x[1], x[2], x[3], q[0], q[1], q[2], q[3], s) },
				axpy4:       func() { Axpy4(1e-9, -1e-9, 2e-9, -2e-9, x[0], x[1], x[2], x[3], s[:c]) },
				axpy4Rows:   func() { axpy4Rows(&a4, x[0], s[:c], s[c:2*c], s[2*c:3*c], s[3*c:4*c]) },
			},
			{
				name:      "go",
				addMul:    func() { addMul2x4Go(s, q[0], q[1], q[2], q[3], x[0], x[1], x[2], x[3], 0) },
				gram:      func() { accumGram4Go(s[:c*c], x[0], x[1], x[2], x[3]) },
				subMul:    func() { subMul4x2Go(x[0], x[1], x[2], x[3], q[0], q[1], q[2], q[3], s, 0) },
				axpy4:     func() { axpy4Go(1e-9, -1e-9, 2e-9, -2e-9, x[0], x[1], x[2], x[3], s[:c], 0) },
				axpy4Rows: func() { axpy4RowsGo(&a4, x[0], s[:c], s[c:2*c], s[2*c:3*c], s[3*c:4*c], 0) },
			},
		}
		for _, impl := range impls {
			for _, k := range []struct {
				name  string
				run   func()
				madds int
			}{
				{"addMul2x4", impl.addMul, 4 * m * c},
				{"accumGram4", impl.gram, 2 * c * (c + 1)},
				{"subMul4x2", impl.subMul, 4 * m * c},
				{"Axpy4", impl.axpy4, 4 * c},
				{"axpy4Rows", impl.axpy4Rows, 4 * c},
			} {
				b.Run(fmt.Sprintf("%s/%s/c=%d", k.name, impl.name, c), func(b *testing.B) {
					if impl.unavailable {
						b.Skip("no AVX on this CPU")
					}
					for i := 0; i < b.N; i++ {
						k.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k.madds), "ns/madd")
				})
			}
		}
	}
}
