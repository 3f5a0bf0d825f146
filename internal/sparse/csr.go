// Package sparse provides the compressed-sparse-row (CSR) matrix substrate
// used throughout the NRP pipeline: adjacency and transition matrices,
// sparse×vector and sparse×dense products, transposes and row scalings.
//
// Column indices are stored as int32 (graphs up to 2^31-1 nodes), values as
// float64. The dense products come in two forms: the plain method
// (MulDense) is single-threaded, and the Pool-taking variants
// (MulDensePool, MulDenseIntoPool) partition the output rows across a
// par.Pool by nnz-balanced ranges, each row written by one worker with the
// serial inner loop — bit-identical to serial for every pool size. There is
// no transpose product: Aᵀ·X is the same row-partitioned product on the
// stored transpose (graph.Graph.RAdj, or Transpose()), which costs no
// per-worker accumulators and no reduction. MulDenseGramPool is the one
// reduction kernel here (per-worker k×k partials merged in fixed tree
// order, deterministic for a fixed pool size).
package sparse

import (
	"fmt"
	"sort"

	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/par"
)

// CSR is a sparse matrix in compressed-sparse-row form.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1; row i occupies [RowPtr[i], RowPtr[i+1])
	ColIdx     []int32   // len NNZ
	Val        []float64 // len NNZ
}

// New constructs a CSR matrix from raw components, validating their shape.
func New(rows, cols int, rowPtr []int, colIdx []int32, val []float64) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("sparse: rowPtr length %d, want %d", len(rowPtr), rows+1)
	}
	if len(colIdx) != len(val) {
		return nil, fmt.Errorf("sparse: colIdx/val length mismatch %d vs %d", len(colIdx), len(val))
	}
	if rowPtr[0] != 0 || rowPtr[rows] != len(colIdx) {
		return nil, fmt.Errorf("sparse: rowPtr endpoints [%d,%d], want [0,%d]", rowPtr[0], rowPtr[rows], len(colIdx))
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("sparse: rowPtr not monotone at row %d", i)
		}
	}
	for _, j := range colIdx {
		if int(j) < 0 || int(j) >= cols {
			return nil, fmt.Errorf("sparse: column index %d out of range [0,%d)", j, cols)
		}
	}
	return &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, nil
}

// FromStridedRows assembles a CSR matrix from fixed-stride row storage:
// row i occupies colIdx[i*stride : i*stride+int(lens[i])] and the matching
// vals range, with strictly ascending column indices within each row.
// This is the zero-sort assembly path for row-emitting estimators that
// already produce sorted, duplicate-free rows (each worker writes its rows
// into disjoint stride-sized slots with no coordination): FromTriples
// would pay two counting passes plus a triple buffer over the whole nnz to
// rediscover an order the producer already had.
func FromStridedRows(rows, cols int, lens []int32, stride int, colIdx []int32, vals []float64) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %dx%d", rows, cols)
	}
	if stride < 0 {
		return nil, fmt.Errorf("sparse: negative stride %d", stride)
	}
	if len(lens) != rows {
		return nil, fmt.Errorf("sparse: %d row lengths for %d rows", len(lens), rows)
	}
	if len(colIdx) < rows*stride || len(vals) < rows*stride {
		return nil, fmt.Errorf("sparse: strided buffers hold %d/%d entries, want ≥ %d", len(colIdx), len(vals), rows*stride)
	}
	nnz := 0
	rowPtr := make([]int, rows+1)
	for i, l := range lens {
		if l < 0 || int(l) > stride {
			return nil, fmt.Errorf("sparse: row %d length %d outside [0,%d]", i, l, stride)
		}
		nnz += int(l)
		rowPtr[i+1] = nnz
	}
	outC := make([]int32, nnz)
	outV := make([]float64, nnz)
	for i := 0; i < rows; i++ {
		base := i * stride
		row := colIdx[base : base+int(lens[i])]
		prev := int32(-1)
		for _, c := range row {
			if c <= prev || int(c) >= cols {
				return nil, fmt.Errorf("sparse: row %d columns not strictly ascending in [0,%d) at %d", i, cols, c)
			}
			prev = c
		}
		copy(outC[rowPtr[i]:rowPtr[i+1]], row)
		copy(outV[rowPtr[i]:rowPtr[i+1]], vals[base:base+int(lens[i])])
	}
	return &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: outC, Val: outV}, nil
}

// Triple is a single (row, col, value) entry used by FromTriples.
type Triple struct {
	Row, Col int32
	Val      float64
}

// FromTriples builds a CSR matrix from an unordered list of entries.
// Duplicate (row, col) entries are summed. Triples outside the matrix
// bounds yield an error.
//
// The build is two stable counting sorts — first by column, then by row —
// so the entries land in (row, col) order in O(nnz + rows + cols) time
// with no comparison sort, followed by a single duplicate-merging sweep.
func FromTriples(rows, cols int, entries []Triple) (*CSR, error) {
	for _, e := range entries {
		if int(e.Row) < 0 || int(e.Row) >= rows || int(e.Col) < 0 || int(e.Col) >= cols {
			return nil, fmt.Errorf("sparse: triple (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	nnz := len(entries)

	// Pass 1: stable counting sort by column into scratch arrays.
	colStart := make([]int, cols+1)
	for _, e := range entries {
		colStart[e.Col+1]++
	}
	for j := 0; j < cols; j++ {
		colStart[j+1] += colStart[j]
	}
	rowTmp := make([]int32, nnz)
	colTmp := make([]int32, nnz)
	valTmp := make([]float64, nnz)
	for _, e := range entries {
		p := colStart[e.Col]
		colStart[e.Col]++
		rowTmp[p] = e.Row
		colTmp[p] = e.Col
		valTmp[p] = e.Val
	}

	// Pass 2: stable counting sort by row. Stability preserves the column
	// order established by pass 1, so each row segment comes out sorted by
	// column with duplicates adjacent.
	rowStart := make([]int, rows+1)
	for _, r := range rowTmp {
		rowStart[r+1]++
	}
	for i := 0; i < rows; i++ {
		rowStart[i+1] += rowStart[i]
	}
	colIdx := make([]int32, nnz)
	val := make([]float64, nnz)
	next := make([]int, rows)
	copy(next, rowStart[:rows])
	for p := 0; p < nnz; p++ {
		r := rowTmp[p]
		q := next[r]
		next[r]++
		colIdx[q] = colTmp[p]
		val[q] = valTmp[p]
	}

	// Merge duplicates in place: entries are sorted by (row, col), so
	// duplicates are adjacent within each row segment.
	rowPtr := make([]int, rows+1)
	out := 0
	for i := 0; i < rows; i++ {
		lo, hi := rowStart[i], rowStart[i+1]
		rowPtr[i] = out
		for p := lo; p < hi; p++ {
			if out > rowPtr[i] && colIdx[out-1] == colIdx[p] {
				val[out-1] += val[p]
			} else {
				colIdx[out] = colIdx[p]
				val[out] = val[p]
				out++
			}
		}
	}
	rowPtr[rows] = out
	return &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx[:out], Val: val[:out]}, nil
}

// NNZ reports the number of stored entries.
func (a *CSR) NNZ() int { return len(a.ColIdx) }

// RowNNZ reports the number of stored entries in row i.
func (a *CSR) RowNNZ(i int) int { return a.RowPtr[i+1] - a.RowPtr[i] }

// At returns the (i, j) element. O(log nnz(row i)).
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	seg := a.ColIdx[lo:hi]
	p := sort.Search(len(seg), func(k int) bool { return seg[k] >= int32(j) })
	if p < len(seg) && seg[p] == int32(j) {
		return a.Val[lo+p]
	}
	return 0
}

// Clone returns a deep copy of a.
func (a *CSR) Clone() *CSR {
	c := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int32(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	return c
}

// Transpose returns aᵀ as a new CSR matrix.
func (a *CSR) Transpose() *CSR { return a.TransposePool(nil) }

// TransposePool is Transpose built on a par.Pool, a counting sort by
// column over nnz-balanced row ranges: each worker counts its range's
// entries per column, the counts are prefix-summed column by column in
// worker order — so every column keeps ascending row order and the result
// equals the serial one byte for byte at every pool size — and each worker
// scatters its range through its own cursors. Costs one int per column
// per worker.
func (a *CSR) TransposePool(p *par.Pool) *CSR {
	t := &CSR{
		Rows:   a.Cols,
		Cols:   a.Rows,
		RowPtr: make([]int, a.Cols+1),
		ColIdx: make([]int32, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	next := make([][]int, p.Chunks(a.Rows)) // per worker: counts, then write cursors
	for w := range next {
		next[w] = make([]int, a.Cols)
	}
	p.ForWeighted(a.Rows, a.RowPtr, func(w, lo, hi int) {
		cnt := next[w]
		for _, j := range a.ColIdx[a.RowPtr[lo]:a.RowPtr[hi]] {
			cnt[j]++
		}
	})
	pos := 0
	for j := 0; j < a.Cols; j++ {
		t.RowPtr[j] = pos
		for _, nx := range next {
			nx[j], pos = pos, pos+nx[j]
		}
	}
	t.RowPtr[a.Cols] = pos
	p.ForWeighted(a.Rows, a.RowPtr, func(w, lo, hi int) {
		nx := next[w]
		for i := lo; i < hi; i++ {
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				j := a.ColIdx[q]
				t.ColIdx[nx[j]] = int32(i)
				t.Val[nx[j]] = a.Val[q]
				nx[j]++
			}
		}
	})
	return t
}

// ScaleRows returns diag(d)·a as a new matrix: row i is scaled by d[i].
func (a *CSR) ScaleRows(d []float64) *CSR {
	if len(d) != a.Rows {
		panic(fmt.Sprintf("sparse: ScaleRows length %d, want %d", len(d), a.Rows))
	}
	out := a.Clone()
	for i := 0; i < a.Rows; i++ {
		s := d[i]
		for p := out.RowPtr[i]; p < out.RowPtr[i+1]; p++ {
			out.Val[p] *= s
		}
	}
	return out
}

// RowSums returns the vector of row sums of a.
func (a *CSR) RowSums() []float64 {
	sums := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			s += a.Val[p]
		}
		sums[i] = s
	}
	return sums
}

// MulVec computes y = a·x. y must have length a.Rows; x length a.Cols.
func (a *CSR) MulVec(x, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: MulVec shapes x=%d y=%d for %dx%d", len(x), len(y), a.Rows, a.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			s += a.Val[p] * x[a.ColIdx[p]]
		}
		y[i] = s
	}
}

// MulVecT computes y = aᵀ·x. y must have length a.Cols; x length a.Rows.
func (a *CSR) MulVecT(x, y []float64) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic(fmt.Sprintf("sparse: MulVecT shapes x=%d y=%d for %dx%d", len(x), len(y), a.Rows, a.Cols))
	}
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			y[a.ColIdx[p]] += a.Val[p] * xi
		}
	}
}

// MulDense computes a·x for a dense x (a.Cols rows), returning a new
// a.Rows-by-x.Cols dense matrix. This is the workhorse of the block Krylov
// iteration: the inner loop streams rows of x, which are contiguous.
// Single-threaded; see MulDensePool.
func (a *CSR) MulDense(x *matrix.Dense) *matrix.Dense {
	return a.MulDensePool(nil, x)
}

// MulDensePool is MulDense parallelized over a par.Pool: the output rows
// are partitioned into nnz-balanced contiguous ranges (one per worker),
// each written by exactly one worker with the same inner loop as the
// serial product — so the result is bit-identical to MulDense for every
// pool size. A nil pool runs serially.
func (a *CSR) MulDensePool(p *par.Pool, x *matrix.Dense) *matrix.Dense {
	out := matrix.NewDense(a.Rows, x.Cols)
	a.MulDenseIntoPool(p, x, out)
	return out
}

// MulDenseIntoPool is MulDensePool writing a·x over out, an
// a.Rows-by-x.Cols matrix that must not alias x — for loops that would
// otherwise allocate a fresh product every iteration.
func (a *CSR) MulDenseIntoPool(p *par.Pool, x, out *matrix.Dense) {
	if x.Rows != a.Cols || out.Rows != a.Rows || out.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: MulDense shape %dx%d * %dx%d into %dx%d", a.Rows, a.Cols, x.Rows, x.Cols, out.Rows, out.Cols))
	}
	p.ForWeighted(a.Rows, a.RowPtr, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			a.mulRow(i, x, out.Row(i))
		}
	})
}

// mulRow overwrites out with row i of a·x, four entries of the row per
// pass over out (matrix.Axpy4 sums them in order, as four Axpy calls do).
func (a *CSR) mulRow(i int, x *matrix.Dense, out []float64) {
	clear(out)
	q, end := a.RowPtr[i], a.RowPtr[i+1]
	for ; q+4 <= end; q += 4 {
		c, v := a.ColIdx[q:q+4], a.Val[q:q+4]
		matrix.Axpy4(v[0], v[1], v[2], v[3], x.Row(int(c[0])), x.Row(int(c[1])), x.Row(int(c[2])), x.Row(int(c[3])), out)
	}
	for ; q < end; q++ {
		matrix.Axpy(a.Val[q], x.Row(int(a.ColIdx[q])), out)
	}
}

// MulDenseGramPool returns (a·x)ᵀ(a·x), the Gram matrix of the product,
// without materializing a·x: each worker forms four rows of it at a time
// and folds them into its x.Cols×x.Cols partial (matrix.GramRowsPool).
// Rows are split by count, not nnz: folding a row costs x.Cols²/2
// multiply-adds, forming it nnz(row)·x.Cols.
func (a *CSR) MulDenseGramPool(p *par.Pool, x *matrix.Dense) *matrix.Dense {
	if x.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: MulDenseGram shape %dx%d * %dx%d", a.Rows, a.Cols, x.Rows, x.Cols))
	}
	return matrix.GramRowsPool(p, a.Rows, x.Cols, func(i int, buf []float64) []float64 {
		a.mulRow(i, x, buf)
		return buf
	})
}

// ToDense materializes a as a dense matrix (for tests and tiny graphs).
func (a *CSR) ToDense() *matrix.Dense {
	out := matrix.NewDense(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := out.Row(i)
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			row[a.ColIdx[p]] += a.Val[p]
		}
	}
	return out
}

// Identity returns the n-by-n identity in CSR form.
func Identity(n int) *CSR {
	rowPtr := make([]int, n+1)
	colIdx := make([]int32, n)
	val := make([]float64, n)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = i + 1
		colIdx[i] = int32(i)
		val[i] = 1
	}
	return &CSR{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}
