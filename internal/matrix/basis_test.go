package matrix

import (
	"math/rand"
	"testing"

	"github.com/nrp-embed/nrp/internal/par"
)

// checkOrthonormalCols verifies QᵀQ == I within tol (max-abs entry).
func checkOrthonormalCols(t *testing.T, q *Dense, tol float64) {
	t.Helper()
	g := MulAtB(q, q)
	if d := g.MaxAbsDiff(Identity(q.Cols)); d > tol {
		t.Fatalf("columns not orthonormal: max deviation %v", d)
	}
}

// checkSpans verifies every column of a lies in span(q): the residual of
// projecting a onto q is at most 1e-10·‖a‖.
func checkSpans(t *testing.T, q, a *Dense) {
	t.Helper()
	res := Mul(q, MulAtB(q, a)).Sub(a).FrobeniusNorm()
	if lim := 1e-10 * a.FrobeniusNorm(); res > lim {
		t.Fatalf("span not preserved: residual %g > %g", res, lim)
	}
}

// krylovPanel returns the n×c matrix whose columns are the normalized
// power iterates (MMᵀ)ⁱx of a random M and x: they converge on the
// dominant eigenvector, so the panel's condition number grows
// geometrically with c.
func krylovPanel(n, c int, rng *rand.Rand) *Dense {
	m := GaussianDense(n, n, rng)
	mmt := MulABt(m, m)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	a := NewDense(n, c)
	y := make([]float64, n)
	for j := 0; j < c; j++ {
		NormalizeRow(x)
		for i, v := range x {
			a.Set(i, j, v)
		}
		mmt.MulVecInto(x, y)
		x, y = y, x
	}
	return a
}

func colSlice(a *Dense, lo, hi int) *Dense {
	out := NewDense(a.Rows, hi-lo)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i), a.Row(i)[lo:hi])
	}
	return out
}

func TestOrthonormalizeBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := GaussianDense(20, 5, rng)
	q := OrthonormalizePool(nil, nil, a)
	if q.Cols != 5 {
		t.Fatalf("expected 5 columns, got %d", q.Cols)
	}
	checkOrthonormalCols(t, q, 1e-12)
}

func TestOrthonormalizeDropsDependentColumns(t *testing.T) {
	a := NewDense(4, 3)
	for i := 0; i < 4; i++ {
		a.Set(i, 0, float64(i+1))
		a.Set(i, 1, 2*float64(i+1)) // dependent on col 0
		a.Set(i, 2, float64(i*i))
	}
	q := OrthonormalizePool(nil, nil, a)
	if q.Cols != 2 {
		t.Fatalf("expected dependent column dropped: got %d cols", q.Cols)
	}
	checkOrthonormalCols(t, q, 1e-12)
}

func TestOrthonormalizePreservesSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := GaussianDense(15, 4, rng)
	checkSpans(t, OrthonormalizePool(nil, nil, a.Clone()), a)
}

// TestOrthonormalizeEmpty covers an empty panel (with and without a
// basis, which it must leave unchanged), no rows, and fewer rows than
// columns.
func TestOrthonormalizeEmpty(t *testing.T) {
	q := OrthonormalizePool(nil, nil, NewDense(5, 0))
	if q.Rows != 5 || q.Cols != 0 {
		t.Fatalf("unexpected shape %dx%d", q.Rows, q.Cols)
	}
	if q := OrthonormalizePool(par.New(2), nil, NewDense(0, 3)); q.Rows != 0 || q.Cols != 0 {
		t.Fatalf("no rows: shape %dx%d", q.Rows, q.Cols)
	}

	rng := rand.New(rand.NewSource(12))
	basis := NewBasis(5, 9)
	OrthonormalizePool(nil, basis, GaussianDense(5, 2, rng))
	if q := OrthonormalizePool(nil, basis, NewDense(5, 0)); q.Cols != 0 || basis.Cols() != 2 {
		t.Fatalf("empty panel: %d new columns, basis holds %d, want 0 and 2", q.Cols, basis.Cols())
	}
	// Seven more columns in a 5-dimensional space: only three survive.
	q = OrthonormalizePool(par.New(3), basis, GaussianDense(5, 7, rng))
	if q.Cols != 3 || basis.Cols() != 5 {
		t.Fatalf("wide panel: %d new columns, basis holds %d, want 3 and 5", q.Cols, basis.Cols())
	}
	checkOrthonormalCols(t, basis.Dense(), 1e-12)
}

// TestOrthonormalizePoolProperties grows a basis from Gaussian panels and
// checks it is orthonormal, spans the input, repeats bit for bit at a
// fixed pool size and agrees across pool sizes to reassociation level.
func TestOrthonormalizePoolProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := GaussianDense(157, 45, rng)
	build := func(p *par.Pool) *Dense {
		basis := NewBasis(a.Rows, a.Cols)
		for c0 := 0; c0 < a.Cols; c0 += 15 {
			panel := colSlice(a, c0, c0+15)
			got := OrthonormalizePool(p, basis, panel)
			if got.Cols != 15 {
				t.Fatalf("full-rank panel kept %d of 15 columns", got.Cols)
			}
			if &got.Data[0] != &panel.Data[0] {
				t.Fatal("full-rank panel was copied, not orthonormalized in place")
			}
		}
		return basis.Dense()
	}
	ref := build(nil)
	checkOrthonormalCols(t, ref, 1e-12)
	checkSpans(t, ref, a)
	for _, workers := range []int{1, 2, 3, 8} {
		pool := par.New(workers)
		got := build(pool)
		if d := got.MaxAbsDiff(ref); d > 1e-12 {
			t.Fatalf("workers=%d: differs from serial by %g", workers, d)
		}
		bitIdentical(t, "repeat at fixed pool size", build(pool), got)
	}
}

// TestOrthonormalizePoolDropsDependent feeds duplicated and zero columns.
func TestOrthonormalizePoolDropsDependent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := GaussianDense(50, 3, rng)
	a := NewDense(50, 7)
	for i := 0; i < 50; i++ {
		row := a.Row(i)
		brow := base.Row(i)
		row[0], row[1], row[2] = brow[0], brow[1], brow[2]
		row[3] = brow[0]                     // duplicate
		row[4] = 2*brow[1] - 0.5*brow[2]     // combination
		row[5] = 0                           // zero column
		row[6] = brow[0] + brow[1] + brow[2] // combination
	}
	q := OrthonormalizePool(par.New(3), nil, a.Clone())
	if q.Cols != 3 {
		t.Fatalf("kept %d columns of rank-3 input, want 3", q.Cols)
	}
	checkOrthonormalCols(t, q, 1e-12)
	checkSpans(t, q, a)

	// Columns already in the basis are dropped too, and the compacting
	// Dense moves the rows together inside the basis storage: same values,
	// no second copy of the basis, and stable when asked again.
	basis := NewBasis(50, 10)
	OrthonormalizePool(nil, basis, base.Clone())
	if q := OrthonormalizePool(par.New(2), basis, a.Clone()); q.Cols != 0 || basis.Cols() != 3 {
		t.Fatalf("panel inside the basis: %d new columns, basis holds %d, want 0 and 3", q.Cols, basis.Cols())
	}
	want := NewDense(50, 3)
	for r := 0; r < 50; r++ {
		copy(want.Row(r), basis.row(r))
	}
	storage := &basis.data[0]
	for call := 0; call < 2; call++ {
		d := basis.Dense()
		bitIdentical(t, "compacted basis", d, want)
		if &d.Data[0] != storage || len(d.Data) != 50*3 {
			t.Fatalf("call %d: compacted basis was copied (or kept its stride): %d values", call, len(d.Data))
		}
	}
	checkSpans(t, basis.Dense(), base)
}

// TestOrthonormalizeIllConditioned feeds power iterates whose condition
// number is beyond what CholeskyQR2 tolerates, alone and split over a
// basis so the second panel is almost inside the span of the first: the
// Gram–Schmidt fallback and the second projection pass must keep the
// result orthonormal to working precision.
func TestOrthonormalizeIllConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const c = 24
	a := krylovPanel(120, c, rng)
	// Unit columns bound σ_max below by 1 and the last column's distance
	// to the span of the others bounds σ_min above.
	head := OrthonormalizePool(nil, nil, colSlice(a, 0, c-1))
	checkOrthonormalCols(t, head, 1e-12)
	last := colSlice(a, c-1, c)
	if dist := Mul(head, MulAtB(head, last)).Sub(last).FrobeniusNorm(); dist > 1e-10 {
		t.Fatalf("fixture condition number only >= %g, want >= 1e10", 1/dist)
	}
	if cholQR(nil, a.Clone(), colNorms2(a)) {
		t.Fatal("CholeskyQR accepted the ill-conditioned panel: fallback not exercised")
	}
	for _, workers := range []int{1, 3} {
		pool := par.New(workers)
		q := OrthonormalizePool(pool, nil, a.Clone())
		checkOrthonormalCols(t, q, 1e-12)
		checkSpans(t, q, a)

		basis := NewBasis(a.Rows, a.Cols)
		OrthonormalizePool(pool, basis, colSlice(a, 0, 8))
		OrthonormalizePool(pool, basis, colSlice(a, 8, c))
		checkOrthonormalCols(t, basis.Dense(), 1e-12)
		checkSpans(t, basis.Dense(), a)
	}
}
