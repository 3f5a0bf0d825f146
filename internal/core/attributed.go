package core

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/matrix"
)

// This file implements the extension the paper's conclusion names as future
// work: "we plan to study how to extend NRP to handle attributed graphs."
//
// The design reuses NRP's own machinery: node attributes are smoothed
// through the same truncated personalized-PageRank operator
// Π′ = Σ_{i=0..ℓ₁} α(1−α)^i·P^i that Algorithm 1 factorizes, i.e.
// H = Π′·F for an attribute matrix F — the attribute analog of the PPR
// proximity NRP preserves (each node's representation is the PPR-weighted
// average of the attributes in its neighborhood). The smoothed attributes
// are fused with the reweighted topology embeddings by concatenation for
// features and by a convex score combination for pair scoring.

// AttributedOptions extends Options with attribute-fusion parameters.
type AttributedOptions struct {
	Options
	// AttrDim caps the attribute channel: attribute matrices wider than
	// this are Gaussian-projected down to AttrDim before propagation
	// (0 = keep the input width).
	AttrDim int
	// Beta weighs the attribute cosine similarity against the topology
	// inner product in Score: (1−β)·topology + β·attributes. Default 0.3.
	Beta float64
}

// DefaultAttributedOptions returns DefaultOptions plus the attribute
// defaults.
func DefaultAttributedOptions() AttributedOptions {
	return AttributedOptions{Options: DefaultOptions(), Beta: 0.3}
}

// Validate extends Options.Validate with the attribute parameters.
func (o AttributedOptions) Validate() error {
	if err := o.Options.Validate(); err != nil {
		return err
	}
	if o.AttrDim < 0 {
		return fmt.Errorf("core: AttrDim must be non-negative, got %d", o.AttrDim)
	}
	if o.Beta < 0 || o.Beta > 1 {
		return fmt.Errorf("core: Beta must be in [0,1], got %v", o.Beta)
	}
	return nil
}

// AttributedEmbedding couples NRP topology embeddings with PPR-smoothed,
// row-normalized attribute vectors.
type AttributedEmbedding struct {
	Topology *Embedding
	// Attr is the n×d smoothed attribute matrix with unit-norm rows
	// (zero rows stay zero).
	Attr *matrix.Dense
	Beta float64
}

// NRPAttributedCtx embeds an attributed graph: NRP on the topology plus
// truncated-PPR propagation of the attribute matrix (n×d, one row per
// node). The topology phases inherit NRPCtx's cancellation points, and the
// attribute propagation checks the context between iterations. On
// cancellation the returned error is ctx.Err().
func NRPAttributedCtx(ctx context.Context, g *graph.Graph, attrs *matrix.Dense, opt AttributedOptions, opts ...RunOption) (*AttributedEmbedding, *Stats, error) {
	t := newTracker(ctx, NewRunConfig(opts))
	emb, err := nrpAttributed(g, attrs, opt, t)
	return emb, t.done(), err
}

func nrpAttributed(g *graph.Graph, attrs *matrix.Dense, opt AttributedOptions, t *tracker) (*AttributedEmbedding, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if attrs.Rows != g.N {
		return nil, fmt.Errorf("core: attribute matrix has %d rows for %d nodes", attrs.Rows, g.N)
	}
	topo, err := nrpTracked(g, opt.Options, t)
	if err != nil {
		return nil, err
	}
	smoothed, err := propagateAttributes(g, attrs, opt, t)
	if err != nil {
		return nil, err
	}
	return &AttributedEmbedding{Topology: topo, Attr: smoothed, Beta: opt.Beta}, nil
}

// PropagateAttributes computes H = Σ_{i=0..ℓ₁} α(1−α)^i·P^i·F (optionally
// after Gaussian projection to AttrDim columns) and row-normalizes the
// result. Cost is O(ℓ₁·m·d), the attribute analog of Algorithm 1's
// iterations.
func PropagateAttributes(g *graph.Graph, attrs *matrix.Dense, opt AttributedOptions) *matrix.Dense {
	acc, _ := propagateAttributes(g, attrs, opt, newTracker(context.Background(), RunConfig{}))
	return acc
}

func propagateAttributes(g *graph.Graph, attrs *matrix.Dense, opt AttributedOptions, t *tracker) (*matrix.Dense, error) {
	stop := t.phaseTimer(&t.stats.Attributes)
	f := attrs
	if opt.AttrDim > 0 && attrs.Cols > opt.AttrDim {
		rng := rand.New(rand.NewSource(opt.Seed + 17))
		proj := matrix.GaussianDense(attrs.Cols, opt.AttrDim, rng)
		proj.Scale(1 / float64(attrs.Cols))
		f = matrix.MulPool(t.pool, attrs, proj)
	}
	invDeg := g.InvOutDegrees() // P·X is D⁻¹·(A·X): no CSR copy with 1/d values
	cur := f.Clone()
	cur.Scale(opt.Alpha)
	acc := cur.Clone()
	iters := 0
	for i := 1; i <= opt.L1; i++ {
		if err := t.err(); err != nil {
			stop(iters)
			return nil, err
		}
		cur = g.Adj.MulDensePool(t.pool, cur)
		// Fused (1−α)·D⁻¹-scale of cur and accumulate into acc, parallel
		// over disjoint row ranges.
		t.pool.For(acc.Rows, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				scale := (1 - opt.Alpha) * invDeg[v]
				crow := cur.Row(v)
				arow := acc.Row(v)
				for j := range crow {
					crow[j] *= scale
					arow[j] += crow[j]
				}
			}
		})
		iters++
		t.step(PhaseAttributes, iters, opt.L1)
	}
	t.pool.For(acc.Rows, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			matrix.NormalizeRow(acc.Row(v))
		}
	})
	stop(iters)
	return acc, nil
}

// Score combines the topology inner product with attribute cosine
// similarity: (1−β)·X_u·Y_vᵀ + β·⟨H_u, H_v⟩.
func (e *AttributedEmbedding) Score(u, v int) float64 {
	topo := e.Topology.Score(u, v)
	attr := matrix.Dot(e.Attr.Row(u), e.Attr.Row(v))
	return (1-e.Beta)*topo + e.Beta*attr
}

// Features concatenates the normalized topology features with the smoothed
// attribute vector, for downstream classifiers.
func (e *AttributedEmbedding) Features(v int) []float64 {
	topo := e.Topology.Features(v)
	out := make([]float64, 0, len(topo)+e.Attr.Cols)
	out = append(out, topo...)
	return append(out, e.Attr.Row(v)...)
}
