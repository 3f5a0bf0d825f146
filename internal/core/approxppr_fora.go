package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/nrp-embed/nrp/internal/fora"
	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/sparse"
	"github.com/nrp-embed/nrp/internal/svd"
)

const (
	// foraMinTopK floors the entries kept per PPR row so low-dimensional
	// runs (small k′) still give the factorization enough support. On
	// community-structured graphs rows truncated near k′ itself are too
	// sparse relative to community size for the SVD to recover the
	// community subspace, so the floor sits well above typical k′.
	foraMinTopK = fora.DefaultBuildTopK
	// foraFactorIters is the default subspace-iteration count for
	// factorizing the sparse proximity matrix. Π̂ has fast spectral
	// decay (it is already a low-rank-plus-noise object), so a couple of
	// iterations recover the dominant subspace — and stopping there
	// measurably beats running longer: extra iterations converge toward
	// the truncated matrix's exact subspace, which includes its sampling
	// and truncation noise, while the dominant community structure is
	// already captured. Options.KrylovIters overrides.
	foraFactorIters = 2
)

// foraPPRFactors is the EstimatorFORA implementation of the
// approximate-PPR phase: estimate the top entries of every row of
// Π′ = Σ_{i≥1} α(1−α)^i P^i with the FORA build estimator (shared walk
// index, top-k early termination), assemble them as a sparse matrix, and
// factorize it directly with subspace iteration into X = U√Σ, Y = V√Σ —
// the STRAP-style direct factorization, replacing Algorithm 1's
// adjacency-BKSVD + proximity-folding route. The two backends produce
// different (not bit-comparable) factor pairs that agree on downstream
// task quality; the bench gate holds them to link-prediction AUC parity.
//
// Phase accounting maps the row estimation to PhasePPR and the SVD to
// PhaseFactorize, so Stats stay comparable across estimators.
func foraPPRFactors(g *graph.Graph, opt Options, t *tracker) (*Embedding, *matrix.Dense, error) {
	kPrime := opt.Dim / 2
	ec := t.cfg.Estimator
	topK := ec.TopK
	if topK == 0 {
		topK = kPrime
		if topK < foraMinTopK {
			topK = foraMinTopK
		}
	}

	stopPPR := t.phaseTimer(&t.stats.PPR)
	est, err := fora.NewBuildEstimator(t.ctx, g, t.pool, fora.BuildOptions{
		Alpha:        opt.Alpha,
		TopK:         topK,
		Epsilon:      ec.Epsilon,
		WalksPerNode: ec.WalksPerNode,
		Seed:         opt.Seed,
		Exhaustive:   ec.Exhaustive,
	})
	if err != nil {
		stopPPR(0)
		if isCtxErr(err) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("core: building FORA estimator: %w", err)
	}
	// Each emitted row lands in its own stride-sized slot of a flat buffer
	// pair — disjoint writes need no locking, and the rows arrive sorted
	// and duplicate-free, so the proximity matrix assembles with a single
	// packing pass instead of a triple buffer plus two counting sorts.
	stride := est.Options().TopK
	colBuf := make([]int32, g.N*stride)
	valBuf := make([]float64, g.N*stride)
	lens := make([]int32, g.N)
	rows := 0
	err = est.Rows(t.ctx, func(u int32, cols []int32, vals []float64) {
		base := int(u) * stride
		copy(colBuf[base:base+len(cols)], cols)
		copy(valBuf[base:base+len(vals)], vals)
		lens[u] = int32(len(cols))
	}, func(done, total int) {
		// Rows serializes its progress calls (emit above is the concurrent
		// one), so rows needs no atomic and the caller's ProgressFunc sees
		// one in-order event at a time, as on the push path.
		rows = done
		t.step(PhasePPR, done, total)
	})
	stopPPR(rows)
	if err != nil {
		if isCtxErr(err) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("core: estimating PPR rows: %w", err)
	}

	pi, err := sparse.FromStridedRows(g.N, g.N, lens, stride, colBuf, valBuf)
	if err != nil {
		return nil, nil, fmt.Errorf("core: assembling proximity matrix: %w", err)
	}

	stopFactorize := t.phaseTimer(&t.stats.Factorize)
	iters := opt.KrylovIters
	if iters <= 0 {
		iters = foraFactorIters
	}
	svdIters := 0
	res, err := svd.SubspaceIteration(pi, svd.Options{
		Rank:    kPrime,
		Epsilon: opt.Epsilon,
		Iters:   iters,
		Rng:     rand.New(rand.NewSource(opt.Seed)),
		Ctx:     t.ctx,
		Pool:    t.pool,
		Progress: func(iter, total int) {
			svdIters = iter
			t.step(PhaseFactorize, iter, total)
		},
	})
	if err != nil {
		stopFactorize(svdIters)
		t.stats.KrylovIters = svdIters
		if isCtxErr(err) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("core: factorizing proximity matrix: %w", err)
	}
	stopFactorize(res.ItersRun)
	t.stats.KrylovIters = res.ItersRun
	for _, s := range res.S {
		if s > 1e-12 {
			t.stats.AchievedRank++
		}
	}

	// X = U√Σ, Y = V√Σ (no D⁻¹ scaling: Π̂ is factorized directly, unlike
	// the push path which factorizes A and folds the transition later).
	sqrtS := make([]float64, len(res.S))
	for i, s := range res.S {
		sqrtS[i] = math.Sqrt(s)
	}
	x := res.U.Clone()
	t.pool.For(g.N, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			row := x.Row(u)
			for j := range row {
				row[j] *= sqrtS[j]
			}
		}
	})
	y := res.V.Clone()
	t.pool.For(g.N, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			row := y.Row(v)
			for j := range row {
				row[j] *= sqrtS[j]
			}
		}
	})

	return &Embedding{X: x, Y: y}, res.V, nil
}
