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
	// At, when non-nil, is aᵀ in CSR form; the solvers compute every
	// transpose product as a row-partitioned product on it. A caller that
	// holds the transpose already (graph.Graph.RAdj for an adjacency matrix)
	// passes it; nil builds it once per factorization.
	At *sparse.CSR
	// Pool, when non-nil, parallelizes the sparse products, Gram matrices
	// and orthonormalizations across its workers (nil = serial). The sparse
	// products A·X and Aᵀ·X are row-partitioned kernels, bit-identical for
	// every pool size; the Gram matrices and the projection of a block on
	// the basis are reduction kernels, bit-identical for a fixed pool size
	// and different across sizes by floating-point reassociation — so the
	// factors are too.
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
	return factorize(a, opt, true)
}

// SubspaceIteration computes an approximate rank-k SVD by randomized
// simultaneous (power) iteration: Q ← orth((AAᵀ)^q A Π). It is cheaper per
// iteration than BKSVD (the basis stays of width k) but needs more
// iterations for the same accuracy — the trade-off the paper cites when
// preferring BKSVD. Used by the FORA build and in ablation benchmarks.
func SubspaceIteration(a *sparse.CSR, opt Options) (*Result, error) {
	return factorize(a, opt, false)
}

// factorize runs the block power iteration both solvers share. With
// krylov set every orthonormalized block joins the search space
// K = [AΠ, (AAᵀ)AΠ, …, (AAᵀ)^q AΠ], Π ∈ R^{m×k}; without it only the last
// block does.
//
// Memory: the basis (n×(q+1)k, krylov only) plus two product buffers
// reused by every step: next (n×k) and tmp (m×k, a Gaussian Π's own
// storage once Π is spent). Both products of a step are row-partitioned —
// Aᵀ·X is at·X on the stored transpose — so nothing here grows with the
// pool size except the k×k and (q+1)k×(q+1)k partials of the Gram and
// projection reductions.
func factorize(a *sparse.CSR, opt Options, krylov bool) (*Result, error) {
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
	pool, at := opt.Pool, opt.At
	if at == nil {
		at = a.TransposePool(pool)
	} else if at.Rows != m || at.Cols != n || at.NNZ() != a.NNZ() {
		return nil, fmt.Errorf("svd: Options.At is %dx%d with %d entries, want the transpose of %dx%d with %d", at.Rows, at.Cols, at.NNZ(), n, m, a.NNZ())
	}
	pi, err := opt.initBlock(m, k)
	if err != nil {
		return nil, err
	}
	q := opt.iters(max(n, m))
	var basis *matrix.Basis
	if krylov {
		// Cap the Krylov block so the basis never exceeds the matrix dimension.
		for q > 1 && (q+1)*k > n {
			q--
		}
		basis = matrix.NewBasis(n, (q+1)*k)
	}
	// Each block is projected against the blocks before it and
	// orthonormalized in place as it is produced, so the basis is
	// orthonormal as a whole when the loop ends; powering an orthonormal
	// block also tames the geometric growth of the leading direction.
	next := matrix.NewDense(n, k)
	a.MulDenseIntoPool(pool, pi, next)
	tmp := pi
	if opt.Init != nil { // the caller's block is not ours to overwrite
		tmp = matrix.NewDense(m, k)
	}
	cur := matrix.OrthonormalizePool(pool, basis, next) // n×k, or narrower
	itersRun := 0
	for i := 0; i < q; i++ {
		if err := opt.checkCtx(); err != nil {
			return nil, err
		}
		// Where dependent columns were dropped the buffers narrow with the block.
		tmp, next = front(tmp, cur.Cols), front(next, cur.Cols)
		at.MulDenseIntoPool(pool, cur, tmp)
		a.MulDenseIntoPool(pool, tmp, next) // (A Aᵀ) cur; cur may alias next, and is spent
		cur = matrix.OrthonormalizePool(pool, basis, next)
		itersRun++
		opt.step(itersRun, q)
	}
	if err := opt.checkCtx(); err != nil {
		return nil, err
	}
	if krylov {
		cur = basis.Dense()
	}
	return rayleighRitz(at, pool, cur, k, itersRun), nil
}

// front returns the rows×cols matrix over the front of d's storage.
func front(d *matrix.Dense, cols int) *matrix.Dense {
	return &matrix.Dense{Rows: d.Rows, Cols: cols, Data: d.Data[:d.Rows*cols]}
}

// rayleighRitz extracts the rank-k factors from an orthonormal basis Q of
// the search space: the top-k eigenpairs (λ, z) of M = QᵀAAᵀQ = WᵀW,
// W = AᵀQ, give σ = √λ, U = Q·z and V = AᵀUΣ⁻¹. W is as large as Q and is
// never held: M is accumulated from four of its rows at a time and V is
// one k-wide product, both over at = Aᵀ.
func rayleighRitz(at *sparse.CSR, pool *par.Pool, qMat *matrix.Dense, k, itersRun int) *Result {
	vals, vecs := matrix.TopKEigen(at.MulDenseGramPool(pool, qMat), k)
	s := make([]float64, len(vals))
	inv := make([]float64, len(vals))
	for i, lambda := range vals {
		if lambda < 0 {
			lambda = 0
		}
		s[i] = math.Sqrt(lambda)
		inv[i] = 1 // a numerically vanishing σ leaves its (zero) column of V as it is
		if s[i] > 1e-12 {
			inv[i] = 1 / s[i]
		}
	}
	u := matrix.MulPool(pool, qMat, vecs) // n × k
	v := at.MulDensePool(pool, u)         // m × k
	pool.For(v.Rows, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := v.Row(i)
			for j := range row {
				row[j] *= inv[j]
			}
		}
	})
	return &Result{U: u, S: s, V: v, ItersRun: itersRun}
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
