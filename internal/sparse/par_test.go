package sparse

import (
	"math/rand"
	"testing"

	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/par"
)

// randCSR builds a random sparse matrix with skewed row lengths, the
// shape that stresses nnz-balanced partitioning.
func randCSR(t *testing.T, rows, cols, nnz int, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Triple, nnz)
	for i := range entries {
		r := rng.Intn(rows)
		if rng.Intn(4) == 0 {
			r = rng.Intn(1 + rows/10) // hot rows
		}
		entries[i] = Triple{Row: int32(r), Col: int32(rng.Intn(cols)), Val: rng.NormFloat64()}
	}
	a, err := FromTriples(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestMulDensePoolMatchesSerial checks the row-partitioned parallel
// forward product is bit-identical to the serial one for several pool
// sizes (disjoint output rows, identical inner loops).
func TestMulDensePoolMatchesSerial(t *testing.T) {
	a := randCSR(t, 300, 200, 4000, 1)
	x := matrix.GaussianDense(200, 17, rand.New(rand.NewSource(2)))
	want := a.MulDense(x)
	for _, workers := range []int{1, 2, 4, 7} {
		got := a.MulDensePool(par.New(workers), x)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("workers=%d: shape %dx%d, want %dx%d", workers, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		// The Into form must overwrite whatever the buffer held.
		a.MulDenseIntoPool(par.New(workers), x, got)
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Fatalf("workers=%d: element %d = %v, want %v (must be bit-identical)", workers, i, got.Data[i], v)
			}
		}
	}
}

// TestMulDenseTPoolMatchesSerial checks the accumulator-merged transpose
// product agrees with the serial one to floating-point reassociation
// tolerance, and is bit-identical across repeated runs at a fixed pool
// size.
func TestMulDenseTPoolMatchesSerial(t *testing.T) {
	a := randCSR(t, 250, 180, 3500, 3)
	x := matrix.GaussianDense(250, 13, rand.New(rand.NewSource(4)))
	want := a.MulDenseT(x)
	for _, workers := range []int{1, 2, 4, 7} {
		pool := par.New(workers)
		got := a.MulDenseTPool(pool, x)
		if d := got.MaxAbsDiff(want); d > 1e-12 {
			t.Fatalf("workers=%d: max abs diff %g vs serial", workers, d)
		}
		again := a.MulDenseTPool(pool, x)
		for i, v := range got.Data {
			if again.Data[i] != v {
				t.Fatalf("workers=%d: repeated run differs at %d (%v vs %v)", workers, i, again.Data[i], v)
			}
		}
	}
}

// TestFromTriplesCountingSortMatchesReference cross-checks the counting-
// sort CSR build against a dense reference accumulation on random inputs
// with many duplicates.
func TestFromTriplesCountingSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		nnz := rng.Intn(300)
		entries := make([]Triple, nnz)
		ref := make([]float64, rows*cols)
		for i := range entries {
			r, c := rng.Intn(rows), rng.Intn(cols)
			v := rng.NormFloat64()
			entries[i] = Triple{Row: int32(r), Col: int32(c), Val: v}
			ref[r*cols+c] += v
		}
		a, err := FromTriples(rows, cols, entries)
		if err != nil {
			t.Fatal(err)
		}
		// Structure: strictly increasing columns within each row (all
		// duplicates merged), monotone rowPtr.
		for i := 0; i < rows; i++ {
			for p := a.RowPtr[i] + 1; p < a.RowPtr[i+1]; p++ {
				if a.ColIdx[p-1] >= a.ColIdx[p] {
					t.Fatalf("trial %d: row %d columns not strictly increasing", trial, i)
				}
			}
		}
		got := a.ToDense()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if d := got.At(i, j) - ref[i*cols+j]; d > 1e-12 || d < -1e-12 {
					t.Fatalf("trial %d: (%d,%d) = %v, want %v", trial, i, j, got.At(i, j), ref[i*cols+j])
				}
			}
		}
	}
}

// BenchmarkFromTriples measures the counting-sort CSR build on a graph-
// shaped triple load (2 entries per undirected edge).
func BenchmarkFromTriples(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n, m = 50_000, 400_000
	entries := make([]Triple, 0, 2*m)
	for i := 0; i < m; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		entries = append(entries, Triple{Row: u, Col: v, Val: 1}, Triple{Row: v, Col: u, Val: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromTriples(n, n, entries); err != nil {
			b.Fatal(err)
		}
	}
}
