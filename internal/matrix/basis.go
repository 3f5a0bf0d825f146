package matrix

import (
	"math"

	"github.com/nrp-embed/nrp/internal/par"
)

const (
	// orthTol is the column-norm threshold below which a column is
	// considered linearly dependent on the previous ones and dropped
	// during orthonormalization (relative to the column's input norm when
	// that exceeds 1).
	orthTol = 1e-10
	// cholTol is the smallest Cholesky pivot, relative to the column's
	// squared norm before and after projection, that CholeskyQR2 accepts.
	// Below it the panel's condition number (≳ 1e3) would cost more than
	// the 1e-13 orthogonality the second pass can restore, and the panel
	// is handed to the Gram–Schmidt fallback, which also decides drops.
	cholTol = 1e-6
)

// Basis is a growing set of orthonormal columns stored row-major, so the
// projection kernels stream contiguous rows. OrthonormalizePool appends
// to it one panel at a time.
type Basis struct {
	rows, stride, cols int
	data               []float64 // rows × stride; the first cols of each row are set
}

// NewBasis returns an empty basis of vectors of the given length with room
// for capCols columns; appending more panics.
func NewBasis(rows, capCols int) *Basis {
	return &Basis{rows: rows, stride: capCols, data: make([]float64, rows*capCols)}
}

// Cols reports how many orthonormal columns the basis holds.
func (q *Basis) Cols() int {
	if q == nil {
		return 0
	}
	return q.cols
}

// Dense returns the basis as a rows×Cols matrix over the basis storage. A
// basis with unused capacity is first compacted in place — never copied,
// it is the largest block of a factorization — and is full from then on.
func (q *Basis) Dense() *Dense {
	if q.cols < q.stride {
		// Row r moves left to r·cols ≤ r·stride; ascending r never
		// overwrites a row that has yet to move.
		for r := 0; r < q.rows; r++ {
			copy(q.data[r*q.cols:(r+1)*q.cols], q.row(r))
		}
		q.stride, q.data = q.cols, q.data[:q.rows*q.cols]
	}
	return &Dense{Rows: q.rows, Cols: q.cols, Data: q.data}
}

func (q *Basis) row(r int) []float64 {
	return q.data[r*q.stride : r*q.stride+q.cols]
}

func (q *Basis) append(p *par.Pool, w *Dense) {
	if q.cols+w.Cols > q.stride {
		panic("matrix: Basis capacity exceeded")
	}
	at := q.cols
	p.For(q.rows, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			copy(q.data[r*q.stride+at:], w.Row(r))
		}
	})
	q.cols += w.Cols
}

// OrthonormalizePool returns a matrix whose columns are orthonormal,
// orthogonal to the basis q, and together with q span the columns of b.
// With a non-nil q the returned columns are also appended to q; a nil q is
// an empty basis, so the result is an orthonormal basis of b's column
// space. Columns that are numerically linear combinations of q and of
// earlier columns are dropped, so the result may be narrower than b. b is
// overwritten: the result is built in it and aliases it unless columns were
// dropped.
//
// The panel is projected against q by classical Gram–Schmidt applied
// twice (S = qᵀb as per-worker partials merged in tree order, b −= q·S
// row-partitioned) and then orthonormalized by CholeskyQR2. When a
// Cholesky pivot is too small — an ill-conditioned or rank-deficient panel
// — it is instead orthonormalized column by column with modified
// Gram–Schmidt, which drops the dependent columns. S and the panel's Gram
// matrix are reductions over per-worker row ranges, so the result is
// bit-identical for a fixed pool size and differs by reassociation across
// sizes.
func OrthonormalizePool(p *par.Pool, q *Basis, b *Dense) *Dense {
	if b.Rows == 0 || b.Cols == 0 {
		return NewDense(b.Rows, 0)
	}
	if q != nil && q.rows != b.Rows {
		panic("matrix: OrthonormalizePool row count mismatch")
	}
	orig2 := colNorms2(b)
	w := b
	q.project(p, w)
	if !(cholQR(p, w, orig2) && cholQR(p, w, nil)) {
		w = gramSchmidt(w, orig2)
		if q.Cols() > 0 && w.Cols > 0 {
			// Cancellation inside the panel amplified what the projection
			// left along q. w is orthonormal now, so projecting again costs
			// it only a second-order error that one CholeskyQR round, which
			// cannot fail here, removes.
			q.project(p, w)
			cholQR(p, w, nil)
		}
	}
	if q != nil {
		q.append(p, w)
	}
	return w
}

// colNorms2 returns the squared Euclidean norm of every column of a.
func colNorms2(a *Dense) []float64 {
	out := make([]float64, a.Cols)
	for r := 0; r < a.Rows; r++ {
		for j, v := range a.Row(r) {
			out[j] += v * v
		}
	}
	return out
}

// project removes from w its component in span(q): two rounds of
// w −= q·(qᵀw).
func (q *Basis) project(p *par.Pool, w *Dense) {
	built := q.Cols()
	if built == 0 {
		return
	}
	c := w.Cols
	for pass := 0; pass < 2; pass++ {
		parts := make([][]float64, p.Chunks(w.Rows))
		p.For(w.Rows, func(k, lo, hi int) {
			acc := make([]float64, built*c)
			r := lo
			for ; r+4 <= hi; r += 4 {
				accumQtB4(acc, q.row(r), q.row(r+1), q.row(r+2), q.row(r+3),
					w.Row(r), w.Row(r+1), w.Row(r+2), w.Row(r+3))
			}
			for ; r < hi; r++ { // leftover rows, one at a time
				for i, x := range q.row(r) {
					Axpy(x, w.Row(r), acc[i*c:(i+1)*c])
				}
			}
			parts[k] = acc
		})
		s := p.TreeReduce(parts)
		p.For(w.Rows, func(_, lo, hi int) {
			r := lo
			for ; r+4 <= hi; r += 4 {
				subQS4(s, q.row(r), q.row(r+1), q.row(r+2), q.row(r+3),
					w.Row(r), w.Row(r+1), w.Row(r+2), w.Row(r+3))
			}
			for ; r < hi; r++ {
				for i, x := range q.row(r) {
					Axpy(-x, s[i*c:(i+1)*c], w.Row(r))
				}
			}
		})
	}
}

// accumQtB4 adds the contribution of four rows to S = qᵀb: S[i][j] +=
// Σ_t q_t[i]·b_t[j], two basis columns per sweep over j so eight
// multiply-adds share four loads of b and two load/store pairs of S.
func accumQtB4(s, q0, q1, q2, q3, b0, b1, b2, b3 []float64) {
	c := len(b0)
	addMul2x4(s, q0, q1, q2, q3, b0, b1, b2, b3)
	if i := len(q0) - 1; i%2 == 0 { // odd column count: the last one alone
		b1, b2, b3 = b1[:c], b2[:c], b3[:c]
		x0, x1, x2, x3 := q0[i], q1[i], q2[i], q3[i]
		sx := s[i*c : (i+1)*c]
		for j := range sx {
			sx[j] += float64(x0*b0[j]) + float64(x1*b1[j]) + float64(x2*b2[j]) + float64(x3*b3[j])
		}
	}
}

// subQS4 subtracts q·S from four rows of b, two basis columns per sweep
// over j so eight multiply-adds share two loads of S and four load/store
// pairs of b.
func subQS4(s, q0, q1, q2, q3, b0, b1, b2, b3 []float64) {
	c := len(b0)
	subMul4x2(b0, b1, b2, b3, q0, q1, q2, q3, s)
	if i := len(q0) - 1; i%2 == 0 { // odd column count: the last one alone
		b1, b2, b3 = b1[:c], b2[:c], b3[:c]
		x0, x1, x2, x3 := q0[i], q1[i], q2[i], q3[i]
		sx := s[i*c : (i+1)*c]
		for j := range b0 {
			u := sx[j]
			b0[j] -= float64(x0 * u)
			b1[j] -= float64(x1 * u)
			b2[j] -= float64(x2 * u)
			b3[j] -= float64(x3 * u)
		}
	}
}

// cholQR orthonormalizes the columns of w in place by one round of
// CholeskyQR (G = wᵀw = RᵀR, w ← w·R⁻¹); a second round on the result
// brings it to working precision (CholeskyQR2). It reports false, leaving
// w untouched, when a pivot is too small for that or for every column to
// be safely independent; orig2, when non-nil, holds the squared norms the
// columns had before they were projected, so a column the projection all
// but cancelled counts as small.
func cholQR(p *par.Pool, w *Dense, orig2 []float64) bool {
	c := w.Cols
	r := GramPool(p, w).Data // factored in place: upper triangle becomes R
	inv := make([]float64, c)
	for i := 0; i < c; i++ {
		g := r[i*c+i]
		d := g
		for k := 0; k < i; k++ {
			d -= r[k*c+i] * r[k*c+i]
		}
		if orig2 != nil && orig2[i] > g {
			g = orig2[i]
		}
		if !(d > cholTol*g && d > orthTol*orthTol) { // also catches NaN
			return false
		}
		rii := math.Sqrt(d)
		r[i*c+i] = rii
		inv[i] = 1 / rii
		for j := i + 1; j < c; j++ {
			v := r[i*c+j]
			for k := 0; k < i; k++ {
				v -= r[k*c+i] * r[k*c+j]
			}
			r[i*c+j] = v * inv[i]
		}
	}
	// Row-wise forward substitution x·R = w, in axpy form so the updates
	// of one step are independent, four rows at a time so they share the
	// loads of R.
	p.For(w.Rows, func(_, lo, hi int) {
		n := lo
		for ; n+4 <= hi; n += 4 {
			y0, y1, y2, y3 := w.Row(n), w.Row(n+1), w.Row(n+2), w.Row(n+3)
			for i, f := range inv {
				y0[i] *= f
				y1[i] *= f
				y2[i] *= f
				y3[i] *= f
				a := [4]float64{-y0[i], -y1[i], -y2[i], -y3[i]}
				axpy4Rows(&a, r[i*c+i+1:(i+1)*c], y0[i+1:], y1[i+1:], y2[i+1:], y3[i+1:])
			}
		}
		for ; n < hi; n++ {
			row := w.Row(n)
			for i := range row {
				row[i] *= inv[i]
				Axpy(-row[i], r[i*c+i+1:(i+1)*c], row[i+1:])
			}
		}
	})
	return true
}

// gramSchmidt orthonormalizes the columns of w by modified Gram–Schmidt
// with a second pass, dropping every column whose remainder is within
// orthTol of zero relative to its input norm (orig2 holds the squares).
// Serial and column-major: it runs only on panels CholeskyQR rejected.
func gramSchmidt(w *Dense, orig2 []float64) *Dense {
	n := w.Rows
	cols := make([][]float64, 0, w.Cols)
	col := make([]float64, n)
	for j := 0; j < w.Cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = w.Data[i*w.Cols+j]
		}
		for pass := 0; pass < 2; pass++ {
			for _, q := range cols {
				Axpy(-Dot(q, col), q, col)
			}
		}
		if nrm := NormalizeRow(col); nrm <= orthTol || nrm <= orthTol*math.Sqrt(orig2[j]) {
			continue // dependent column; col is scratch, refilled next round
		}
		cols = append(cols, col)
		col = make([]float64, n)
	}
	out := NewDense(n, len(cols))
	for j, col := range cols {
		for i, v := range col {
			out.Data[i*out.Cols+j] = v
		}
	}
	return out
}
