package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/svd"
)

// ApproxPPRCtx implements Algorithm 1 of the paper: it factorizes the
// adjacency matrix with randomized block-Krylov SVD, seeds
// X₁ = D⁻¹U√Σ, Y = V√Σ (so X₁Yᵀ ≈ P), then folds higher-order proximity
// into X by ℓ₁−1 sparse iterations X_i = (1−α)·P·X_{i−1} + X₁ and a final
// scaling by α(1−α), yielding X·Yᵀ ≈ Π′ = Σ_{i=1..ℓ₁} α(1−α)^i P^i with the
// Theorem-1 error bound. The embeddings are the paper's PPR baseline and
// the starting point of NRP.
//
// The context is checked between Krylov iterations and between PPR
// folding iterations; on cancellation the returned error is ctx.Err().
// Stats are returned even on error, covering the phases that ran.
func ApproxPPRCtx(ctx context.Context, g *graph.Graph, opt Options, opts ...RunOption) (*Embedding, *Stats, error) {
	t := newTracker(ctx, NewRunConfig(opts))
	emb, err := approxPPR(g, opt, t)
	return emb, t.done(), err
}

// ApproxPPRFactorsCtx runs Algorithm 1 like ApproxPPRCtx, but additionally
// accepts an optional warm-start block for the BKSVD factorizer (the V
// factor of a previous run, pass nil for a cold start) and returns the
// right-singular-vector block of this run for warm-starting the next one.
// Combined with a reduced Options.KrylovIters this is how the dynamic
// subsystem re-factorizes an updated graph at a fraction of the cold cost.
func ApproxPPRFactorsCtx(ctx context.Context, g *graph.Graph, opt Options, init *matrix.Dense, opts ...RunOption) (*Embedding, *matrix.Dense, *Stats, error) {
	t := newTracker(ctx, NewRunConfig(opts))
	emb, v, err := approxPPRFactors(g, opt, t, init)
	return emb, v, t.done(), err
}

// isCtxErr reports whether err is a context cancellation/deadline error,
// which the pipeline propagates bare so callers can compare against
// ctx.Err().
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// approxPPR runs Algorithm 1 under an existing tracker so NRP can share
// one stats record across its phases.
func approxPPR(g *graph.Graph, opt Options, t *tracker) (*Embedding, error) {
	emb, _, err := approxPPRFactors(g, opt, t, nil)
	return emb, err
}

// approxPPRFactors is approxPPR with the factorizer's starting block
// exposed (init, nil = Gaussian) and its right-singular-vector block
// returned for warm-starting a future factorization.
func approxPPRFactors(g *graph.Graph, opt Options, t *tracker, init *matrix.Dense) (*Embedding, *matrix.Dense, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	if err := t.cfg.Estimator.validate(); err != nil {
		return nil, nil, err
	}
	kPrime := opt.Dim / 2
	if kPrime > g.N {
		return nil, nil, fmt.Errorf("core: k/2 = %d exceeds node count %d", kPrime, g.N)
	}
	if t.cfg.Estimator.Kind == EstimatorFORA {
		if init != nil {
			return nil, nil, fmt.Errorf("%w: warm-start factorization requires the %q estimator", ErrEstimatorOptionConflict, EstimatorPush)
		}
		return foraPPRFactors(g, opt, t)
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Line 1: [U, Σ, V] ← BKSVD(A, k′, ε).
	stopFactorize := t.phaseTimer(&t.stats.Factorize)
	factorize := svd.BKSVD
	if opt.SubspaceIteration {
		factorize = svd.SubspaceIteration
	}
	// Iterations seen via the progress hook, so a cancelled factorization
	// still reports how far it got.
	kryIters := 0
	res, err := factorize(g.Adj, svd.Options{
		Rank:    kPrime,
		Epsilon: opt.Epsilon,
		Iters:   opt.KrylovIters,
		Rng:     rng,
		Init:    init,
		At:      g.RAdj,
		Ctx:     t.ctx,
		Pool:    t.pool,
		Progress: func(iter, total int) {
			kryIters = iter
			t.step(PhaseFactorize, iter, total)
		},
	})
	if err != nil {
		stopFactorize(kryIters)
		t.stats.KrylovIters = kryIters
		if isCtxErr(err) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("core: factorizing adjacency: %w", err)
	}
	stopFactorize(res.ItersRun)
	t.stats.KrylovIters = res.ItersRun
	for _, s := range res.S {
		if s > 1e-12 {
			t.stats.AchievedRank++
		}
	}

	// Line 2: X₁ = D⁻¹·U·√Σ, Y = V·√Σ. Row loops parallelize over the
	// pool (disjoint rows: bit-identical for any thread count).
	sqrtS := make([]float64, len(res.S))
	for i, s := range res.S {
		sqrtS[i] = math.Sqrt(s)
	}
	x1 := res.U // scaled in place: U is not used again
	invDeg := g.InvOutDegrees()
	t.pool.For(g.N, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			row := x1.Row(u)
			for j := range row {
				row[j] *= invDeg[u] * sqrtS[j]
			}
		}
	})
	y := res.V.Clone() // V itself is returned for warm starts
	t.pool.For(g.N, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			row := y.Row(v)
			for j := range row {
				row[j] *= sqrtS[j]
			}
		}
	})

	// Lines 3–5: X_i = (1−α)·P·X_{i−1} + X₁; X = α(1−α)·X_{ℓ₁}.
	// P·X is D⁻¹·(A·X): the 1/d row scale rides in the fused loop below,
	// so the fold needs no copy of the CSR with 1/d values.
	stopPPR := t.phaseTimer(&t.stats.PPR)
	// x and next swap roles every iteration: two buffers for the whole
	// fold instead of a fresh n×k′ product per step.
	x, next := x1.Clone(), matrix.NewDense(x1.Rows, x1.Cols)
	iters := 0
	for i := 2; i <= opt.L1; i++ {
		if err := t.err(); err != nil {
			stopPPR(iters)
			return nil, nil, err
		}
		g.Adj.MulDenseIntoPool(t.pool, x, next)
		// Fused (1−α)·D⁻¹·next + X₁, parallel over disjoint row ranges.
		t.pool.For(g.N, func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				scale := (1 - opt.Alpha) * invDeg[u]
				row := next.Row(u)
				x1row := x1.Row(u)
				for j := range row {
					row[j] = row[j]*scale + x1row[j]
				}
			}
		})
		x, next = next, x
		iters++
		t.step(PhasePPR, iters, opt.L1-1)
	}
	scale := opt.Alpha * (1 - opt.Alpha)
	t.pool.For(g.N, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			row := x.Row(u)
			for j := range row {
				row[j] *= scale
			}
		}
	})
	stopPPR(iters)

	return &Embedding{X: x, Y: y}, res.V, nil
}
