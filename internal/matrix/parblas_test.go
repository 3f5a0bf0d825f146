package matrix

import (
	"math/rand"
	"testing"

	"github.com/nrp-embed/nrp/internal/par"
)

func bitIdentical(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("%s: element %d = %v, want %v (must be bit-identical)", name, i, got.Data[i], v)
		}
	}
}

// TestMulPoolBitIdentical checks the blocked parallel GEMM matches the
// serial kernel exactly for every pool size (k-ascending accumulation
// order is preserved by the blocking and by the four-term passes), also
// when zeros in a break up the groups of four.
func TestMulPoolBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := GaussianDense(70, 513, rng) // inner dim spans two k-blocks
	b := GaussianDense(513, 29, rng)
	sparse := a.Clone()
	for i := range sparse.Data {
		if rng.Intn(3) == 0 {
			sparse.Data[i] = 0
		}
	}
	for _, a := range []*Dense{a, sparse} {
		want := Mul(a, b)
		for _, workers := range []int{0, 1, 3, 8} {
			var pool *par.Pool
			if workers > 0 {
				pool = par.New(workers)
			}
			bitIdentical(t, "MulPool", MulPool(pool, a, b), want)
		}
	}
}

// TestMulABtPoolBitIdentical checks the row-partitioned A·Bᵀ matches the
// serial kernel exactly.
func TestMulABtPoolBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := GaussianDense(57, 33, rng)
	b := GaussianDense(41, 33, rng)
	want := MulABt(a, b)
	for _, workers := range []int{1, 4, 9} {
		bitIdentical(t, "MulABtPool", MulABtPool(par.New(workers), a, b), want)
	}
}

// TestMulAtBPoolMatchesSerial checks the partial-merged Aᵀ·B agrees with
// the serial kernel to reassociation tolerance and repeats bit-identically
// at a fixed pool size.
func TestMulAtBPoolMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := GaussianDense(301, 23, rng)
	b := GaussianDense(301, 17, rng)
	want := MulAtB(a, b)
	for _, workers := range []int{1, 2, 5} {
		pool := par.New(workers)
		got := MulAtBPool(pool, a, b)
		if d := got.MaxAbsDiff(want); d > 1e-12 {
			t.Fatalf("workers=%d: max abs diff %g", workers, d)
		}
		bitIdentical(t, "MulAtBPool repeat", MulAtBPool(pool, a, b), got)
	}
}

// scalarGram is the one-row upper-triangle loop GramPool ran before the
// 4-row kernel, mirrored: the reference the kernel is held to.
func scalarGram(a *Dense) *Dense {
	k := a.Cols
	out := NewDense(k, k)
	for r := 0; r < a.Rows; r++ {
		row := a.Row(r)
		for i, av := range row {
			for j := i; j < k; j++ {
				out.Data[i*k+j] += av * row[j]
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			out.Data[j*k+i] = out.Data[i*k+j]
		}
	}
	return out
}

// TestGramPoolSymmetricAndCorrect checks GramPool against MulAtB(a, a)
// and the scalar loop — every row count modulo 4 (per worker too), odd and
// even widths — and that the result is exactly symmetric and repeats bit
// for bit at a fixed pool size.
func TestGramPoolSymmetricAndCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range [][2]int{{211, 19}, {208, 8}, {209, 1}, {210, 32}, {3, 5}, {1, 2}} {
		a := GaussianDense(shape[0], shape[1], rng)
		want := scalarGram(a)
		if d := want.MaxAbsDiff(MulAtB(a, a)); d > 1e-12*float64(a.Rows) {
			t.Fatalf("%dx%d: scalar reference off by %g", a.Rows, a.Cols, d)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			pool := par.New(workers)
			g := GramPool(pool, a)
			if d := g.MaxAbsDiff(want); d > 1e-12*float64(a.Rows) {
				t.Fatalf("%dx%d workers=%d: max abs diff %g", a.Rows, a.Cols, workers, d)
			}
			for i := 0; i < g.Rows; i++ {
				for j := 0; j < g.Cols; j++ {
					if g.At(i, j) != g.At(j, i) {
						t.Fatalf("workers=%d: asymmetric at (%d,%d)", workers, i, j)
					}
				}
			}
			bitIdentical(t, "GramPool repeat", GramPool(pool, a), g)
		}
	}
	empty := GramPool(par.New(2), NewDense(0, 5))
	if empty.Rows != 5 || empty.Cols != 5 {
		t.Fatalf("empty Gram shape %dx%d", empty.Rows, empty.Cols)
	}
}
