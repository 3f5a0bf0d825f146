package svd

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/par"
	"github.com/nrp-embed/nrp/internal/sparse"
)

// lowRankSparse builds a sparse-ish matrix with known singular values by
// assembling sum_i s_i u_i v_iᵀ from random orthonormal u, v and densifying
// to triples (small sizes only).
func lowRankSparse(t *testing.T, n, m int, s []float64, rng *rand.Rand) *sparse.CSR {
	t.Helper()
	u := matrix.OrthonormalizePool(nil, nil, matrix.GaussianDense(n, len(s), rng))
	v := matrix.OrthonormalizePool(nil, nil, matrix.GaussianDense(m, len(s), rng))
	var entries []sparse.Triple
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			val := 0.0
			for t := range s {
				val += s[t] * u.At(i, t) * v.At(j, t)
			}
			if val != 0 {
				entries = append(entries, sparse.Triple{Row: int32(i), Col: int32(j), Val: val})
			}
		}
	}
	a, err := sparse.FromTriples(n, m, entries)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// checkRightFactor holds V to its definition V = Aᵀ·U·Σ⁻¹, with the
// transpose product done the other way round (scattering rows of U along
// the rows of a) than the solver does it: within 1e-10 per entry, every
// fixture here having singular values of order one or more.
func checkRightFactor(t *testing.T, a *sparse.CSR, res *Result) {
	t.Helper()
	want := matrix.NewDense(a.Cols, len(res.S))
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			matrix.Axpy(a.Val[p], res.U.Row(i), want.Row(int(a.ColIdx[p])))
		}
	}
	for j := 0; j < want.Rows; j++ {
		for c, sigma := range res.S {
			want.Row(j)[c] /= sigma
		}
	}
	if res.V.Rows != want.Rows || res.V.Cols != want.Cols {
		t.Fatalf("V is %dx%d, want %dx%d", res.V.Rows, res.V.Cols, want.Rows, want.Cols)
	}
	if d := res.V.MaxAbsDiff(want); !(d <= 1e-10) {
		t.Fatalf("V differs from AᵀUΣ⁻¹ by %g", d)
	}
}

func TestBKSVDRecoversSingularValues(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trueS := []float64{10, 6, 3, 1}
	a := lowRankSparse(t, 40, 30, trueS, rng)
	res, err := BKSVD(a, Options{Rank: 4, Epsilon: 0.1, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range trueS {
		if math.Abs(res.S[i]-want) > 0.05*want {
			t.Fatalf("singular value %d: got %v want %v", i, res.S[i], want)
		}
	}
	checkRightFactor(t, a, res)
}

func TestBKSVDReconstructionError(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	trueS := []float64{8, 5, 2, 0.5, 0.1}
	a := lowRankSparse(t, 35, 35, trueS, rng)
	res, err := BKSVD(a, Options{Rank: 3, Epsilon: 0.1, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	// Spectral error of rank-3 approx should be close to sigma_4 = 0.5.
	// Check the Frobenius residual against the optimal sqrt(0.5^2+0.1^2).
	dense := a.ToDense()
	recon := matrix.Mul(matrix.Mul(res.U, matrix.Diag(res.S)), res.V.T())
	resid := dense.Sub(recon).FrobeniusNorm()
	optimal := math.Sqrt(0.5*0.5 + 0.1*0.1)
	if resid > optimal*1.3 {
		t.Fatalf("residual %v, optimal %v", resid, optimal)
	}
}

func TestBKSVDOrthonormalFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := lowRankSparse(t, 30, 25, []float64{5, 4, 3, 2, 1}, rng)
	res, err := BKSVD(a, Options{Rank: 4, Epsilon: 0.2, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	gu := matrix.MulAtB(res.U, res.U)
	if d := gu.MaxAbsDiff(matrix.Identity(4)); d > 1e-6 {
		t.Fatalf("U not orthonormal: %v", d)
	}
	gv := matrix.MulAtB(res.V, res.V)
	if d := gv.MaxAbsDiff(matrix.Identity(4)); d > 1e-4 {
		t.Fatalf("V not orthonormal: %v", d)
	}
}

func TestBKSVDMatchesExactSVDOnSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var entries []sparse.Triple
	n := 20
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				entries = append(entries, sparse.Triple{Row: int32(i), Col: int32(j), Val: rng.NormFloat64()})
			}
		}
	}
	a, _ := sparse.FromTriples(n, n, entries)
	_, exactS, _ := matrix.SVD(a.ToDense())
	res, err := BKSVD(a, Options{Rank: 5, Iters: 12, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if math.Abs(res.S[i]-exactS[i]) > 0.02*math.Max(1, exactS[i]) {
			t.Fatalf("sigma_%d: bksvd=%v exact=%v", i, res.S[i], exactS[i])
		}
	}
}

func TestSubspaceIterationRecoversSingularValues(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	trueS := []float64{9, 4, 2}
	a := lowRankSparse(t, 30, 30, trueS, rng)
	res, err := SubspaceIteration(a, Options{Rank: 3, Iters: 15, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range trueS {
		if math.Abs(res.S[i]-want) > 0.05*want {
			t.Fatalf("sigma_%d: got %v want %v", i, res.S[i], want)
		}
	}
	checkRightFactor(t, a, res)
}

func TestBKSVDErrors(t *testing.T) {
	a, _ := sparse.FromTriples(3, 3, []sparse.Triple{{Row: 0, Col: 0, Val: 1}})
	if _, err := BKSVD(a, Options{Rank: 0, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := BKSVD(a, Options{Rank: 2}); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := BKSVD(a, Options{Rank: 9, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Fatal("oversized rank accepted")
	}
}

func TestBKSVDCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a := lowRankSparse(t, 30, 30, []float64{5, 3, 1}, rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BKSVD(a, Options{Rank: 3, Rng: rng, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("BKSVD: want context.Canceled, got %v", err)
	}
	if _, err := SubspaceIteration(a, Options{Rank: 3, Rng: rng, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubspaceIteration: want context.Canceled, got %v", err)
	}
}

func TestBKSVDCancelMidIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	a := lowRankSparse(t, 30, 30, []float64{5, 3, 1}, rng)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := 0
	_, err := BKSVD(a, Options{Rank: 3, Iters: 6, Rng: rng, Ctx: ctx, Progress: func(iter, total int) {
		fired++
		if iter == 2 {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if fired != 2 {
		t.Fatalf("progress fired %d times before abort, want 2", fired)
	}
}

func TestBKSVDItersRunAndProgress(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	a := lowRankSparse(t, 30, 30, []float64{5, 3, 1}, rng)
	var steps []int
	res, err := BKSVD(a, Options{Rank: 3, Iters: 4, Rng: rng, Progress: func(iter, total int) {
		if total != 4 {
			t.Fatalf("progress total %d, want 4", total)
		}
		steps = append(steps, iter)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ItersRun != 4 {
		t.Fatalf("ItersRun = %d, want 4", res.ItersRun)
	}
	if len(steps) != 4 || steps[0] != 1 || steps[3] != 4 {
		t.Fatalf("progress steps %v", steps)
	}
}

func TestOptionsIters(t *testing.T) {
	o := Options{Epsilon: 0.2}
	q := o.iters(5000)
	if q < minKrylovIters || q > maxKrylovIters {
		t.Fatalf("iters out of range: %d", q)
	}
	o = Options{Iters: 7}
	if o.iters(1000) != 7 {
		t.Fatal("explicit iters ignored")
	}
	// Smaller epsilon should not decrease iterations.
	qSmall := Options{Epsilon: 0.05}.iters(5000)
	if qSmall < q {
		t.Fatalf("iters(eps=0.05)=%d < iters(eps=0.2)=%d", qSmall, q)
	}
}

func TestLowRankApply(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := lowRankSparse(t, 15, 15, []float64{4, 2}, rng)
	res, err := BKSVD(a, Options{Rank: 2, Iters: 10, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	dense := a.ToDense()
	for i := 0; i < 15; i += 3 {
		for j := 0; j < 15; j += 4 {
			if math.Abs(res.LowRankApply(i, j)-dense.At(i, j)) > 1e-4 {
				t.Fatalf("LowRankApply(%d,%d) = %v, want %v", i, j, res.LowRankApply(i, j), dense.At(i, j))
			}
		}
	}
}

// TestBKSVDWarmStart factorizes a matrix, perturbs it slightly, and checks
// that a single warm-started iteration from the previous V factor matches
// the accuracy of a fully converged cold run — while a cold single
// iteration from a fresh Gaussian block is given no such guarantee.
func TestBKSVDWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	trueS := []float64{12, 8, 5, 2.5}
	a := lowRankSparse(t, 50, 50, trueS, rng)
	cold, err := BKSVD(a, Options{Rank: 4, Epsilon: 0.1, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}

	// Perturb: add a small rank-1 bump.
	bump := lowRankSparse(t, 50, 50, []float64{0.3}, rand.New(rand.NewSource(10)))
	entries := make([]sparse.Triple, 0, a.NNZ()+bump.NNZ())
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			entries = append(entries, sparse.Triple{Row: int32(i), Col: a.ColIdx[p], Val: a.Val[p]})
		}
	}
	for i := 0; i < bump.Rows; i++ {
		for p := bump.RowPtr[i]; p < bump.RowPtr[i+1]; p++ {
			entries = append(entries, sparse.Triple{Row: int32(i), Col: bump.ColIdx[p], Val: bump.Val[p]})
		}
	}
	a2, err := sparse.FromTriples(50, 50, entries)
	if err != nil {
		t.Fatal(err)
	}

	full, err := BKSVD(a2, Options{Rank: 4, Epsilon: 0.1, Rng: rand.New(rand.NewSource(11))})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := BKSVD(a2, Options{Rank: 4, Iters: 1, Init: cold.V, Rng: rand.New(rand.NewSource(12))})
	if err != nil {
		t.Fatal(err)
	}
	if warm.ItersRun != 1 {
		t.Fatalf("warm run executed %d iterations, want 1", warm.ItersRun)
	}
	for i := range full.S {
		if math.Abs(warm.S[i]-full.S[i]) > 0.02*full.S[i]+1e-9 {
			t.Fatalf("warm singular value %d: got %v, converged run has %v", i, warm.S[i], full.S[i])
		}
	}

	// Shape mismatch is rejected up front.
	if _, err := BKSVD(a2, Options{Rank: 4, Init: matrix.NewDense(7, 4), Rng: rng}); err == nil {
		t.Fatal("expected shape error for bad warm-start block")
	}
	if _, err := SubspaceIteration(a2, Options{Rank: 4, Init: matrix.NewDense(7, 4), Rng: rng}); err == nil {
		t.Fatal("expected shape error for bad warm-start block (subspace)")
	}
}

// TestBKSVDKrylovSpaceExhausted factorizes rank-2 and rank-3 matrices at
// rank 2 with more iterations than their Krylov spaces have dimensions:
// every block after the first is wholly or (rank 3: one column survives
// the second step) partly dependent on the basis, and the dependent
// columns must be dropped, not orthonormalized into noise — with the
// product buffers the steps share narrowing along with the block.
func TestBKSVDKrylovSpaceExhausted(t *testing.T) {
	for _, trueS := range [][]float64{{5, 2}, {5, 2, 1}} {
		rng := rand.New(rand.NewSource(47))
		a := lowRankSparse(t, 30, 25, trueS, rng)
		const q = 4
		for _, pool := range []*par.Pool{nil, par.New(3)} {
			res, err := BKSVD(a, Options{Rank: 2, Iters: q, Rng: rand.New(rand.NewSource(3)), Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			if res.ItersRun > q {
				t.Fatalf("ItersRun = %d, want <= %d", res.ItersRun, q)
			}
			for i, got := range res.S {
				if math.Abs(got-trueS[i]) > 1e-8*trueS[i] {
					t.Fatalf("rank %d: singular value %d: got %v want %v", len(trueS), i, got, trueS[i])
				}
			}
			checkRightFactor(t, a, res)
		}
	}
}

// materialisedRayleighRitz is rayleighRitz as it ran while W = AᵀQ was
// still held in full, on serial dense kernels: the reference for the
// streamed one.
func materialisedRayleighRitz(a *sparse.CSR, qMat *matrix.Dense, k int) *Result {
	w := a.Transpose().MulDense(qMat)
	vals, vecs := matrix.TopKEigen(matrix.MulAtB(w, w), k)
	res := &Result{U: matrix.Mul(qMat, vecs), V: matrix.Mul(w, vecs)}
	for j, lambda := range vals {
		sigma := math.Sqrt(math.Max(lambda, 0))
		res.S = append(res.S, sigma)
		if sigma > 1e-12 {
			for i := 0; i < res.V.Rows; i++ {
				res.V.Row(i)[j] /= sigma
			}
		}
	}
	return res
}

// TestRayleighRitzStreamedMatchesMaterialised compares V = Aᵀ·U·Σ⁻¹ and a
// Gram matrix accumulated four rows of W at a time against W·z·Σ⁻¹ and
// WᵀW from a materialised W, on search spaces wider than the matrix's
// rank — so some singular values are zero, their columns of V are noise
// over noise in both forms, and only finiteness is asked of them.
func TestRayleighRitzStreamedMatchesMaterialised(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for name, a := range map[string]*sparse.CSR{
		"rank 3 of 30": lowRankSparse(t, 41, 30, []float64{7, 3, 1}, rng),
		"full rank":    lowRankSparse(t, 38, 45, []float64{9, 8, 6, 5, 4, 2.5, 2, 1, 0.5}, rng),
	} {
		const k, width = 5, 9
		qMat := matrix.OrthonormalizePool(nil, nil, matrix.GaussianDense(a.Rows, width, rng))
		want := materialisedRayleighRitz(a, qMat, k)
		for _, pool := range []*par.Pool{nil, par.New(3)} {
			got := rayleighRitz(a.Transpose(), pool, qMat, k, 0)
			for j, sigma := range want.S {
				// Compared as eigenvalues σ²: the square root of a zero one
				// turns 1e-16 of rounding into 1e-8.
				if math.Abs(got.S[j]*got.S[j]-sigma*sigma) > 1e-12*want.S[0]*want.S[0] {
					t.Fatalf("%s: singular value %d: streamed %v, materialised %v", name, j, got.S[j], sigma)
				}
				resolved := sigma > 1e-6*want.S[0] // else a null direction, arbitrary in U too
				for i := 0; i < got.U.Rows; i++ {
					if g, w := got.U.At(i, j), want.U.At(i, j); resolved && math.Abs(g-w) > 1e-10 {
						t.Fatalf("%s: U(%d,%d) = %v, materialised %v", name, i, j, g, w)
					}
				}
				for i := 0; i < got.V.Rows; i++ {
					g, w := got.V.At(i, j), want.V.At(i, j)
					if math.IsNaN(g) || math.IsInf(g, 0) || (resolved && math.Abs(g-w) > 1e-10) {
						t.Fatalf("%s: V(%d,%d) = %v, materialised %v (σ = %v)", name, i, j, g, w, sigma)
					}
				}
			}
		}
	}
}
