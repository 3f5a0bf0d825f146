// Package svd implements randomized low-rank singular value decomposition
// of sparse matrices. The primary algorithm is BKSVD — randomized Block
// Krylov Iteration (Musco & Musco, "Randomized Block Krylov Methods for
// Stronger and Faster Approximate Singular Value Decomposition",
// NeurIPS 2015) — which Algorithm 1 of the NRP paper uses to factorize the
// adjacency matrix with a (1+ε) spectral-norm low-rank guarantee.
//
// A simpler randomized subspace (simultaneous) iteration is also provided
// as an ablation alternative.
package svd

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/par"
	"github.com/nrp-embed/nrp/internal/sparse"
)

// Result holds a (possibly truncated) singular value decomposition
// A ≈ U·diag(S)·Vᵀ with U (n×k), S (k), V (m×k).
type Result struct {
	U *matrix.Dense
	S []float64
	V *matrix.Dense
	// ItersRun is the number of block power iterations actually executed.
	ItersRun int
}

// Options configure the randomized solvers.
type Options struct {
	// Rank is the target rank k (number of singular triplets).
	Rank int
	// Epsilon is the relative spectral-norm error target; it determines the
	// number of Krylov iterations as q ≈ log(n)/(2√ε), clamped to
	// [MinIters, MaxIters]. The NRP paper uses ε = 0.2.
	Epsilon float64
	// Iters, when positive, overrides the ε-derived iteration count.
	Iters int
	// Rng supplies the random projection; required.
	Rng *rand.Rand
	// Init, when non-nil, seeds the block iteration with the given m×k
	// block instead of a fresh Gaussian projection. Warm-starting from a
	// previous factorization's right singular vectors lets a solver
	// re-converge in one or two iterations after a small perturbation of
	// a — the basis of incremental embedding refresh. Init is not
	// mutated; its shape must be Cols(a)×Rank.
	Init *matrix.Dense
	// Ctx, when non-nil, is checked between block iterations so a caller
	// can abort a long factorization; the solver returns Ctx.Err().
	Ctx context.Context
	// Pool, when non-nil, parallelizes the sparse products, Gram matrix
	// and orthonormalizations across its workers (nil = serial). Results
	// are deterministic for a fixed pool size; different sizes differ only
	// by floating-point reassociation in the reduction steps.
	Pool *par.Pool
	// Progress, when non-nil, is invoked after each block iteration with
	// the number of iterations completed and the total planned.
	Progress func(iter, total int)
}

// checkCtx reports the context's error, if a context is set and cancelled.
func (o Options) checkCtx() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// step reports one completed block iteration to the Progress callback.
func (o Options) step(iter, total int) {
	if o.Progress != nil {
		o.Progress(iter, total)
	}
}

const (
	minKrylovIters = 2
	maxKrylovIters = 8
)

// iters resolves the Krylov iteration count from the options. The theory
// prescribes q = Θ(log n/√ε); the constant here (1/4) follows the practical
// regime reported by Musco & Musco, where a handful of block iterations
// already meets the (1+ε) bound.
func (o Options) iters(n int) int {
	if o.Iters > 0 {
		return o.Iters
	}
	eps := o.Epsilon
	if eps <= 0 {
		eps = 0.2
	}
	q := int(math.Ceil(math.Log(float64(n)+1) / (4 * math.Sqrt(eps))))
	if q < minKrylovIters {
		q = minKrylovIters
	}
	if q > maxKrylovIters {
		q = maxKrylovIters
	}
	return q
}

// BKSVD computes an approximate rank-k SVD of the sparse matrix a using
// randomized block Krylov iteration. The returned factors satisfy
// ‖A − U·diag(S)·Vᵀ‖₂ ≤ (1+ε)·σ_{k+1} with high probability for the
// iteration counts used here.
func BKSVD(a *sparse.CSR, opt Options) (*Result, error) {
	k := opt.Rank
	if k <= 0 {
		return nil, fmt.Errorf("svd: rank must be positive, got %d", k)
	}
	if opt.Rng == nil {
		return nil, fmt.Errorf("svd: Options.Rng is required")
	}
	n, m := a.Rows, a.Cols
	if k > n || k > m {
		return nil, fmt.Errorf("svd: rank %d exceeds matrix dimensions %dx%d", k, n, m)
	}
	q := opt.iters(max(n, m))
	// Cap the Krylov block so the basis never exceeds the matrix dimension.
	for q > 1 && (q+1)*k > n {
		q--
	}

	// Build the Krylov block K = [AΠ, (AAᵀ)AΠ, …, (AAᵀ)^q AΠ], Π ∈ R^{m×k}.
	pi, err := opt.initBlock(m, k)
	if err != nil {
		return nil, err
	}
	pool := opt.Pool
	// Each block is projected against the blocks before it and
	// orthonormalized as it is produced, so the basis is orthonormal as a
	// whole when the loop ends; powering an orthonormal block also tames
	// the geometric growth of the leading direction.
	basis := matrix.NewBasis(n, (q+1)*k)
	cur := matrix.OrthonormalizePool(pool, basis, a.MulDensePool(pool, pi)) // n×k
	itersRun := 0
	for i := 0; i < q; i++ {
		if err := opt.checkCtx(); err != nil {
			return nil, err
		}
		next := a.MulDensePool(pool, a.MulDenseTPool(pool, cur)) // (A Aᵀ) cur
		cur = matrix.OrthonormalizePool(pool, basis, next)
		itersRun++
		opt.step(itersRun, q)
	}
	if err := opt.checkCtx(); err != nil {
		return nil, err
	}
	return rayleighRitz(a, pool, basis.Dense(), k, itersRun), nil
}

// rayleighRitz extracts the rank-k factors from an orthonormal basis Q of
// the search space: M = QᵀAAᵀQ = WᵀW with W = AᵀQ, its top-k
// eigenpairs (λ, z) give σ = √λ, U = Q·z and V = AᵀUΣ⁻¹ = W·z·Σ⁻¹.
func rayleighRitz(a *sparse.CSR, pool *par.Pool, qMat *matrix.Dense, k, itersRun int) *Result {
	w := a.MulDenseTPool(pool, qMat) // m × B
	vals, vecs := matrix.TopKEigen(matrix.GramPool(pool, w), k)
	s := make([]float64, len(vals))
	for i, lambda := range vals {
		if lambda < 0 {
			lambda = 0
		}
		s[i] = math.Sqrt(lambda)
	}
	return &Result{
		U:        matrix.MulPool(pool, qMat, vecs), // n × k
		S:        s,
		V:        scaledV(pool, w, vecs, s),
		ItersRun: itersRun,
	}
}

// scaledV computes V = W·vecs·Σ⁻¹, zeroing the inverse for numerically
// vanishing singular values; the row loop parallelizes over the pool.
func scaledV(pool *par.Pool, w, vecs *matrix.Dense, s []float64) *matrix.Dense {
	v := matrix.MulPool(pool, w, vecs)
	inv := make([]float64, len(s))
	for j, sv := range s {
		if sv > 1e-12 {
			inv[j] = 1 / sv
		} else {
			inv[j] = 1 // leave the (zero) column untouched
		}
	}
	pool.For(v.Rows, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := v.Row(i)
			for j := range row {
				row[j] *= inv[j]
			}
		}
	})
	return v
}

// SubspaceIteration computes an approximate rank-k SVD by randomized
// simultaneous (power) iteration: Q ← orth((AAᵀ)^q A Π). It is cheaper per
// iteration than BKSVD (the basis stays of width k) but needs more
// iterations for the same accuracy — the trade-off the paper cites when
// preferring BKSVD. Used in ablation benchmarks.
func SubspaceIteration(a *sparse.CSR, opt Options) (*Result, error) {
	k := opt.Rank
	if k <= 0 {
		return nil, fmt.Errorf("svd: rank must be positive, got %d", k)
	}
	if opt.Rng == nil {
		return nil, fmt.Errorf("svd: Options.Rng is required")
	}
	n, m := a.Rows, a.Cols
	if k > n || k > m {
		return nil, fmt.Errorf("svd: rank %d exceeds matrix dimensions %dx%d", k, n, m)
	}
	q := opt.iters(max(n, m))
	pi, err := opt.initBlock(m, k)
	if err != nil {
		return nil, err
	}
	pool := opt.Pool
	cur := matrix.OrthonormalizePool(pool, nil, a.MulDensePool(pool, pi))
	itersRun := 0
	for i := 0; i < q; i++ {
		if err := opt.checkCtx(); err != nil {
			return nil, err
		}
		cur = matrix.OrthonormalizePool(pool, nil, a.MulDensePool(pool, a.MulDenseTPool(pool, cur)))
		itersRun++
		opt.step(itersRun, q)
	}
	if err := opt.checkCtx(); err != nil {
		return nil, err
	}
	return rayleighRitz(a, pool, cur, k, itersRun), nil
}

// initBlock resolves the starting block: the caller's warm-start block
// when provided (shape-checked), a fresh Gaussian projection otherwise.
func (o Options) initBlock(m, k int) (*matrix.Dense, error) {
	if o.Init == nil {
		return matrix.GaussianDense(m, k, o.Rng), nil
	}
	if o.Init.Rows != m || o.Init.Cols != k {
		return nil, fmt.Errorf("svd: warm-start block is %dx%d, want %dx%d", o.Init.Rows, o.Init.Cols, m, k)
	}
	return o.Init, nil
}

// LowRankApply reconstructs (U·diag(S)·Vᵀ)[i,j] without materializing the
// product; used by tests and examples.
func (r *Result) LowRankApply(i, j int) float64 {
	s := 0.0
	ui := r.U.Row(i)
	vj := r.V.Row(j)
	for t := range r.S {
		s += ui[t] * r.S[t] * vj[t]
	}
	return s
}
