// Package matrix provides the dense linear-algebra substrate used by the
// NRP embedding pipeline: row-major dense matrices, orthonormalization,
// symmetric eigendecomposition and small dense SVD.
//
// The package is deliberately self-contained (standard library only); the
// kernels are the ones Algorithm 1 of the NRP paper delegates to LAPACK-grade
// libraries in the authors' implementation.
package matrix

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64.
//
// The zero value is an empty 0x0 matrix. Rows are stored contiguously, so
// Row(i) aliases the backing slice and can be mutated in place.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense returns a zeroed r-by-c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewDenseFromRows builds a matrix from a slice of equally sized rows.
func NewDenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: ragged row %d: %d != %d", i, len(row), c))
		}
		copy(m.Row(i), row)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Scale multiplies every element of m by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// ScaleRow multiplies row i by s in place.
func (m *Dense) ScaleRow(i int, s float64) {
	row := m.Row(i)
	for j := range row {
		row[j] *= s
	}
}

// AddInPlace adds b to m element-wise, storing the result in m.
func (m *Dense) AddInPlace(b *Dense) {
	m.mustSameShape(b)
	for i, v := range b.Data {
		m.Data[i] += v
	}
}

// Sub returns m - b as a new matrix.
func (m *Dense) Sub(b *Dense) *Dense {
	m.mustSameShape(b)
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

func (m *Dense) mustSameShape(b *Dense) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
}

// Mul returns the matrix product a*b.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: product shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			Axpy(av, b.Row(k), orow)
		}
	}
	return out
}

// MulABt returns a * bᵀ. Both operands must have the same column count.
func MulABt(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulABt shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			orow[j] = Dot(arow, b.Row(j))
		}
	}
	return out
}

// MulAtB returns aᵀ * b. Both operands must have the same row count.
func MulAtB(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("matrix: MulAtB shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Cols, b.Cols)
	for r := 0; r < a.Rows; r++ {
		arow := a.Row(r)
		brow := b.Row(r)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVecInto computes y = m·x with len(x) == Cols and len(y) == Rows.
func (m *Dense) MulVecInto(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("matrix: MulVecInto shapes x=%d y=%d for %dx%d", len(x), len(y), m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		y[i] = Dot(m.Row(i), x)
	}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Dense {
	m := NewDense(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// m and b.
func (m *Dense) MaxAbsDiff(b *Dense) float64 {
	m.mustSameShape(b)
	max := 0.0
	for i, v := range m.Data {
		if d := math.Abs(v - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("matrix: dot length mismatch") // constant string: keeps Dot inlinable
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += a*x for equal-length vectors. The explicit
// conversion rounds each product on its own, so no architecture fuses it
// into the add and Axpy agrees bit for bit with Axpy4 and its AVX body.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("matrix: axpy length mismatch") // constant string: keeps Axpy inlinable
	}
	for i, v := range x {
		y[i] += float64(a * v)
	}
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// NormalizeRow scales v to unit Euclidean norm in place; zero vectors are
// left unchanged. It returns the original norm.
func NormalizeRow(v []float64) float64 {
	n := Norm2(v)
	if n > 0 {
		inv := 1 / n
		for i := range v {
			v[i] *= inv
		}
	}
	return n
}
