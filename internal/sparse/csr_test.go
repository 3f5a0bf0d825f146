package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nrp-embed/nrp/internal/matrix"
)

// randomCSR builds a random sparse matrix with about density*r*c entries.
func randomCSR(t testing.TB, r, c int, density float64, rng *rand.Rand) *CSR {
	var entries []Triple
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				entries = append(entries, Triple{Row: int32(i), Col: int32(j), Val: rng.NormFloat64()})
			}
		}
	}
	m, err := FromTriples(r, c, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFromTriplesBasic(t *testing.T) {
	m, err := FromTriples(3, 3, []Triple{
		{0, 1, 2}, {2, 0, 5}, {0, 0, 1}, {1, 2, -3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ=%d", m.NNZ())
	}
	if m.At(0, 0) != 1 || m.At(0, 1) != 2 || m.At(1, 2) != -3 || m.At(2, 0) != 5 {
		t.Fatalf("bad contents: %+v", m)
	}
	if m.At(1, 1) != 0 {
		t.Fatal("missing entry should be 0")
	}
}

func TestFromTriplesSumsDuplicates(t *testing.T) {
	m, err := FromTriples(2, 2, []Triple{{0, 0, 1}, {0, 0, 2.5}, {1, 1, 1}, {1, 1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 3.5 {
		t.Fatalf("duplicate sum = %v", m.At(0, 0))
	}
	if m.At(1, 1) != 0 || m.NNZ() != 2 {
		t.Fatalf("cancelled duplicate kept: nnz=%d at=%v", m.NNZ(), m.At(1, 1))
	}
}

func TestFromTriplesOutOfRange(t *testing.T) {
	if _, err := FromTriples(2, 2, []Triple{{2, 0, 1}}); err == nil {
		t.Fatal("expected error for out-of-range row")
	}
	if _, err := FromTriples(2, 2, []Triple{{0, 5, 1}}); err == nil {
		t.Fatal("expected error for out-of-range col")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(2, 2, []int{0, 1}, []int32{0}, []float64{1}); err == nil {
		t.Fatal("short rowPtr accepted")
	}
	if _, err := New(2, 2, []int{0, 1, 1}, []int32{5}, []float64{1}); err == nil {
		t.Fatal("bad endpoint accepted")
	}
	if _, err := New(1, 1, []int{0, 1}, []int32{3}, []float64{1}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, err := New(1, 1, []int{0, 1}, []int32{0}, []float64{1}); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomCSR(t, 7, 5, 0.4, rng)
	d := a.ToDense()
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 7)
	a.MulVec(x, y)
	for i := 0; i < 7; i++ {
		want := matrix.Dot(d.Row(i), x)
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("row %d: got %v want %v", i, y[i], want)
		}
	}
}

func TestMulVecTAgainstTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomCSR(t, 6, 9, 0.3, rng)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, 9)
	a.MulVecT(x, y1)
	y2 := make([]float64, 9)
	a.Transpose().MulVec(x, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("MulVecT mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(10), 1+rng.Intn(10)
		a := randomCSR(t, r, c, 0.3, rng)
		tt := a.Transpose().Transpose()
		return a.ToDense().MaxAbsDiff(tt.ToDense()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulDenseAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(t, 8, 6, 0.35, rng)
	x := matrix.GaussianDense(6, 4, rng)
	got := a.MulDense(x)
	want := matrix.Mul(a.ToDense(), x)
	if got.MaxAbsDiff(want) > 1e-12 {
		t.Fatalf("MulDense mismatch: %v", got.MaxAbsDiff(want))
	}
}

func TestMulDenseTAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomCSR(t, 8, 6, 0.35, rng)
	x := matrix.GaussianDense(8, 3, rng)
	got := a.Transpose().MulDense(x)
	want := matrix.Mul(a.ToDense().T(), x)
	if got.MaxAbsDiff(want) > 1e-12 {
		t.Fatalf("transpose product mismatch: %v", got.MaxAbsDiff(want))
	}
}

// Property: (A+A)x == 2Ax via value doubling through ScaleRows.
func TestScaleRowsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 2+rng.Intn(8), 2+rng.Intn(8)
		a := randomCSR(t, r, c, 0.4, rng)
		d := make([]float64, r)
		for i := range d {
			d[i] = rng.Float64() * 3
		}
		scaled := a.ScaleRows(d)
		x := make([]float64, c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := make([]float64, r)
		scaled.MulVec(x, y1)
		y2 := make([]float64, r)
		a.MulVec(x, y2)
		for i := range y1 {
			if math.Abs(y1[i]-d[i]*y2[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRowSums(t *testing.T) {
	m, err := FromTriples(2, 3, []Triple{{0, 0, 1}, {0, 2, 2}, {1, 1, -4}})
	if err != nil {
		t.Fatal(err)
	}
	s := m.RowSums()
	if s[0] != 3 || s[1] != -4 {
		t.Fatalf("RowSums = %v", s)
	}
}

func TestIdentityCSR(t *testing.T) {
	id := Identity(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	id.MulVec(x, y)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity MulVec: %v", y)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a, _ := FromTriples(1, 1, []Triple{{0, 0, 1}})
	b := a.Clone()
	b.Val[0] = 99
	if a.Val[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestRowNNZ(t *testing.T) {
	m, _ := FromTriples(3, 3, []Triple{{0, 0, 1}, {0, 1, 1}, {2, 2, 1}})
	if m.RowNNZ(0) != 2 || m.RowNNZ(1) != 0 || m.RowNNZ(2) != 1 {
		t.Fatalf("RowNNZ wrong: %d %d %d", m.RowNNZ(0), m.RowNNZ(1), m.RowNNZ(2))
	}
}

func TestEmptyMatrixOps(t *testing.T) {
	m, err := FromTriples(3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 0 {
		t.Fatal("empty should have 0 nnz")
	}
	y := make([]float64, 3)
	m.MulVec([]float64{1, 2, 3}, y)
	for _, v := range y {
		if v != 0 {
			t.Fatal("empty matrix product nonzero")
		}
	}
	tt := m.Transpose()
	if tt.Rows != 3 || tt.NNZ() != 0 {
		t.Fatal("empty transpose wrong")
	}
}

func TestFromStridedRowsBasic(t *testing.T) {
	// Three rows in stride-3 slots, partially filled; slack entries in the
	// buffers must be ignored.
	lens := []int32{2, 0, 3}
	cols := []int32{
		1, 3, -9,
		-9, -9, -9,
		0, 2, 3,
	}
	vals := []float64{
		1.5, -2, 99,
		99, 99, 99,
		4, 5, 6,
	}
	m, err := FromStridedRows(3, 4, lens, 3, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FromTriples(3, 4, []Triple{
		{Row: 0, Col: 1, Val: 1.5}, {Row: 0, Col: 3, Val: -2},
		{Row: 2, Col: 0, Val: 4}, {Row: 2, Col: 2, Val: 5}, {Row: 2, Col: 3, Val: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != want.NNZ() {
		t.Fatalf("nnz %d, want %d", m.NNZ(), want.NNZ())
	}
	for i := 0; i <= 3; i++ {
		if m.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("rowPtr[%d] = %d, want %d", i, m.RowPtr[i], want.RowPtr[i])
		}
	}
	for i := range m.ColIdx {
		if m.ColIdx[i] != want.ColIdx[i] || m.Val[i] != want.Val[i] {
			t.Fatalf("entry %d = (%d,%v), want (%d,%v)", i, m.ColIdx[i], m.Val[i], want.ColIdx[i], want.Val[i])
		}
	}
}

func TestFromStridedRowsMatchesTriples(t *testing.T) {
	// Random strided rows with ascending columns must assemble to the same
	// matrix FromTriples builds from the equivalent entry list.
	rng := rand.New(rand.NewSource(11))
	const rows, colsN, stride = 40, 60, 8
	lens := make([]int32, rows)
	colBuf := make([]int32, rows*stride)
	valBuf := make([]float64, rows*stride)
	var entries []Triple
	for i := 0; i < rows; i++ {
		l := rng.Intn(stride + 1)
		perm := rng.Perm(colsN)[:l]
		cs := make([]int, l)
		copy(cs, perm)
		sortInts(cs)
		lens[i] = int32(l)
		for j, c := range cs {
			v := rng.NormFloat64()
			colBuf[i*stride+j] = int32(c)
			valBuf[i*stride+j] = v
			entries = append(entries, Triple{Row: int32(i), Col: int32(c), Val: v})
		}
	}
	m, err := FromStridedRows(rows, colsN, lens, stride, colBuf, valBuf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FromTriples(rows, colsN, entries)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != want.NNZ() {
		t.Fatalf("nnz %d, want %d", m.NNZ(), want.NNZ())
	}
	for i := range m.ColIdx {
		if m.ColIdx[i] != want.ColIdx[i] || m.Val[i] != want.Val[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

func TestFromStridedRowsValidation(t *testing.T) {
	ok := func() ([]int32, []int32, []float64) {
		return []int32{2, 2}, []int32{0, 2, -9, 1, 2, -9}, []float64{1, 2, 99, 3, 4, 99}
	}
	cases := []struct {
		name string
		mut  func(lens, cols []int32, vals []float64) (int, int, []int32, int, []int32, []float64)
	}{
		{"negative rows", func(l, c []int32, v []float64) (int, int, []int32, int, []int32, []float64) {
			return -1, 3, l, 3, c, v
		}},
		{"lens mismatch", func(l, c []int32, v []float64) (int, int, []int32, int, []int32, []float64) {
			return 2, 3, l[:1], 3, c, v
		}},
		{"short buffer", func(l, c []int32, v []float64) (int, int, []int32, int, []int32, []float64) {
			return 2, 3, l, 3, c[:4], v
		}},
		{"len exceeds stride", func(l, c []int32, v []float64) (int, int, []int32, int, []int32, []float64) {
			l[0] = 4
			return 2, 3, l, 3, c, v
		}},
		{"negative len", func(l, c []int32, v []float64) (int, int, []int32, int, []int32, []float64) {
			l[1] = -1
			return 2, 3, l, 3, c, v
		}},
		{"descending cols", func(l, c []int32, v []float64) (int, int, []int32, int, []int32, []float64) {
			c[0], c[1] = 2, 0
			return 2, 3, l, 3, c, v
		}},
		{"duplicate cols", func(l, c []int32, v []float64) (int, int, []int32, int, []int32, []float64) {
			c[1] = c[0]
			return 2, 3, l, 3, c, v
		}},
		{"col out of range", func(l, c []int32, v []float64) (int, int, []int32, int, []int32, []float64) {
			c[3] = 3
			return 2, 3, l, 3, c, v
		}},
	}
	for _, tc := range cases {
		l, c, v := ok()
		rows, colsN, lens, stride, cols, vals := tc.mut(l, c, v)
		if _, err := FromStridedRows(rows, colsN, lens, stride, cols, vals); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The unmutated fixture is valid.
	l, c, v := ok()
	if _, err := FromStridedRows(2, 3, l, 3, c, v); err != nil {
		t.Fatalf("valid fixture rejected: %v", err)
	}
}
