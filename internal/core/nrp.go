package core

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/nrp-embed/nrp/internal/graph"
)

// NRPCtx implements Algorithm 3, the paper's main method. Starting from the
// ApproxPPR embeddings, it learns a forward weight →w_u and backward weight
// ←w_v per node by ℓ₂ epochs of coordinate descent on Eq. (6), so that the
// total connection strength Σ_v →w_u·(X_uY_vᵀ)·←w_v matches each node's
// out-degree (and symmetrically in-degree) — correcting PPR's purely local,
// source-relative view. The learned weights are folded into the embeddings:
// X_v ← →w_v·X_v, Y_v ← ←w_v·Y_v.
//
// The context is checked inside the factorization, the PPR folding
// iterations and between reweighting epochs; on cancellation the returned
// error is ctx.Err(). Stats are returned even on error, covering the
// phases that ran.
func NRPCtx(ctx context.Context, g *graph.Graph, opt Options, opts ...RunOption) (*Embedding, *Stats, error) {
	t := newTracker(ctx, NewRunConfig(opts))
	emb, err := nrpTracked(g, opt, t)
	return emb, t.done(), err
}

func nrpTracked(g *graph.Graph, opt Options, t *tracker) (*Embedding, error) {
	emb, err := approxPPR(g, opt, t)
	if err != nil {
		return nil, err
	}
	if opt.L2 == 0 {
		// ℓ₂ = 0 disables reweighting entirely (§5.6): the result is the
		// conventional-PPR embedding, not the degree-scaled initialization.
		return emb, nil
	}
	fw, bw, err := learnWeights(emb, g.InDegrees(), g.OutDegrees(), opt, t)
	if err != nil {
		return nil, err
	}
	// Lines 8–9: fold weights into the embeddings (disjoint rows).
	t.pool.For(g.N, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			emb.X.ScaleRow(v, fw[v])
			emb.Y.ScaleRow(v, bw[v])
		}
	})
	return emb, nil
}

// LearnWeightsCtx runs the reweighting phase of Algorithm 3 (lines 3–7) on
// fixed embeddings and returns the learned forward and backward weights.
// It is exposed separately so callers can inspect or reuse the weights
// (e.g. the parameter studies of Fig 8d). The context is checked between
// coordinate-descent passes; on cancellation the returned error is
// ctx.Err(). Stats report per-epoch residuals.
func LearnWeightsCtx(ctx context.Context, g *graph.Graph, emb *Embedding, opt Options, opts ...RunOption) (fw, bw []float64, stats *Stats, err error) {
	t := newTracker(ctx, NewRunConfig(opts))
	fw, bw, err = learnWeights(emb, g.InDegrees(), g.OutDegrees(), opt, t)
	return fw, bw, t.done(), err
}

// LearnWeightsWithTargets runs the coordinate descent against custom
// per-node strength targets instead of the in-/out-degrees of Eq. (5).
// This exists for the weight-target ablation
// (BenchmarkAblationWeightTargets): passing uniform targets isolates how
// much of NRP's gain comes from targeting degrees specifically.
func LearnWeightsWithTargets(emb *Embedding, din, dout []float64, opt Options) (fw, bw []float64, err error) {
	return learnWeights(emb, din, dout, opt, newTracker(context.Background(), RunConfig{}))
}

// learnWeights is the shared reweighting loop: ℓ₂ epochs of backward then
// forward coordinate-descent passes, with a cancellation check between
// passes and per-epoch mean absolute weight movement recorded as the
// convergence residual.
func learnWeights(emb *Embedding, din, dout []float64, opt Options, t *tracker) (fw, bw []float64, err error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	if len(din) != emb.N() || len(dout) != emb.N() {
		return nil, nil, fmt.Errorf("core: target lengths %d/%d for %d nodes", len(din), len(dout), emb.N())
	}
	stop := t.phaseTimer(&t.stats.Reweight)
	state := newReweightState(emb, din, dout, opt, t.pool)
	rng := rand.New(rand.NewSource(opt.Seed + 0x9e3779b9))
	epochs := 0
	for epoch := 0; epoch < opt.L2; epoch++ {
		if err := t.err(); err != nil {
			stop(epochs)
			return nil, nil, err
		}
		moveB := state.updateBwdWeights(rng)
		if err := t.err(); err != nil {
			stop(epochs)
			return nil, nil, err
		}
		moveF := state.updateFwdWeights(rng)
		epochs++
		residual := (moveB + moveF) / float64(2*emb.N())
		t.stats.ReweightResiduals = append(t.stats.ReweightResiduals, residual)
		t.step(PhaseReweight, epochs, opt.L2)
		// Convergence early-stop: the coordinate descent contracts
		// geometrically, so once an epoch moves the weights below
		// ReweightTol of the first epoch's movement, further epochs are
		// noise-level refinement at full cost.
		if opt.ReweightTol > 0 && epoch > 0 &&
			residual <= opt.ReweightTol*t.stats.ReweightResiduals[0] {
			break
		}
	}
	t.stats.DegreeFit = state.degreeFit()
	stop(epochs)
	return state.fw, state.bw, nil
}
