package sparse

import (
	"math/rand"
	"reflect"
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

// mulDenseT is the scatter form of aᵀ·x, serial: the reference the
// row-partitioned product on the stored transpose is held to.
func mulDenseT(a *CSR, x *matrix.Dense) *matrix.Dense {
	out := matrix.NewDense(a.Cols, x.Cols)
	for i := 0; i < a.Rows; i++ {
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			matrix.Axpy(a.Val[q], x.Row(i), out.Row(int(a.ColIdx[q])))
		}
	}
	return out
}

// TestMulDenseTPoolMatchesSerial checks that aᵀ·x computed as a
// row-partitioned product on the transpose equals the serial scatter
// reference bit for bit at every pool size: the transpose keeps each
// column's entries in ascending row order, which is the order the scatter
// adds them in.
func TestMulDenseTPoolMatchesSerial(t *testing.T) {
	a := randCSR(t, 250, 180, 3500, 3)
	x := matrix.GaussianDense(250, 13, rand.New(rand.NewSource(4)))
	want := mulDenseT(a, x)
	for _, workers := range []int{1, 2, 3, 8} {
		pool := par.New(workers)
		got := a.TransposePool(pool).MulDensePool(pool, x)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("workers=%d: shape %dx%d, want %dx%d", workers, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Fatalf("workers=%d: element %d = %v, want %v (must be bit-identical)", workers, i, got.Data[i], v)
			}
		}
	}
}

// TestTransposePoolEqualsSerial checks the pooled transpose reproduces the
// serial one exactly — row pointers, column order within every row, values
// — for skewed, rectangular, single-row and empty matrices.
func TestTransposePoolEqualsSerial(t *testing.T) {
	for _, a := range []*CSR{
		randCSR(t, 250, 180, 3500, 3), randCSR(t, 7, 400, 900, 5), randCSR(t, 1, 5, 3, 6),
		{Rows: 0, Cols: 4, RowPtr: []int{0}}, {Rows: 3, Cols: 0, RowPtr: []int{0, 0, 0, 0}},
	} {
		want := a.Transpose()
		if want.Rows != a.Cols || want.Cols != a.Rows || want.NNZ() != a.NNZ() {
			t.Fatalf("transpose of %dx%d (%d entries) is %dx%d (%d)", a.Rows, a.Cols, a.NNZ(), want.Rows, want.Cols, want.NNZ())
		}
		for _, workers := range []int{2, 3, 8} {
			got := a.TransposePool(par.New(workers))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%dx%d workers=%d: pooled transpose differs from serial", a.Rows, a.Cols, workers)
			}
		}
	}
}

// TestMulDenseGramPoolMatchesMaterialised holds the streamed Gram matrix
// (a·x)ᵀ(a·x) to the materialised one on matrices with empty rows, every
// row count modulo 4, wide and tall shapes and odd and even widths: within
// 1e-12 relative at every pool size, exactly symmetric, and bit-identical
// when repeated at a fixed pool size.
func TestMulDenseGramPoolMatchesMaterialised(t *testing.T) {
	for _, shape := range []struct{ rows, cols, nnz, width int }{
		{64, 40, 300, 6}, {65, 90, 500, 7}, {66, 20, 150, 1}, {67, 67, 900, 12}, {3, 50, 40, 5}, {1, 9, 4, 2},
	} {
		full := randCSR(t, shape.rows, shape.cols, shape.nnz, int64(shape.rows))
		var kept []Triple // every fifth row left empty, the first among them
		for r := 0; r < full.Rows; r++ {
			for q := full.RowPtr[r]; q < full.RowPtr[r+1] && r%5 != 0; q++ {
				kept = append(kept, Triple{Row: int32(r), Col: full.ColIdx[q], Val: full.Val[q]})
			}
		}
		a, err := FromTriples(shape.rows, shape.cols, kept)
		if err != nil {
			t.Fatal(err)
		}
		x := matrix.GaussianDense(shape.cols, shape.width, rand.New(rand.NewSource(8)))
		want := matrix.GramPool(nil, a.MulDense(x))
		scale := 0.0
		for _, v := range want.Data {
			scale = max(scale, abs(v))
		}
		for _, workers := range []int{1, 2, 3, 8} {
			pool := par.New(workers)
			got := a.MulDenseGramPool(pool, x)
			if d := got.MaxAbsDiff(want); d > 1e-12*scale {
				t.Fatalf("%dx%d width %d workers=%d: differs from the materialised Gram matrix by %g (scale %g)",
					shape.rows, shape.cols, shape.width, workers, d, scale)
			}
			again := a.MulDenseGramPool(pool, x)
			for i, v := range got.Data {
				if again.Data[i] != v {
					t.Fatalf("workers=%d: repeated run differs at %d", workers, i)
				}
				if r, c := i/got.Cols, i%got.Cols; got.Data[c*got.Cols+r] != v {
					t.Fatalf("workers=%d: asymmetric at (%d,%d)", workers, r, c)
				}
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
