package baselines

import (
	"fmt"
	"math/rand"

	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/matrix"
)

// RandNEConfig parameterizes RandNE (Zhang et al., ICDM'18): iterative
// Gaussian random projection. U₀ is an orthogonalized random matrix and
// U_i = P·U_{i−1}; the embedding is Σ a_i·U_i.
type RandNEConfig struct {
	Dim     int
	Weights []float64 // per-order weights a₀..a_q (default 1, 1e2, 1e4, 1e5)
	Seed    int64
}

// RandNE computes the iterative random-projection embedding. It is the
// fastest baseline in the paper (no factorization at all) at the cost of
// result utility.
func RandNE(g *graph.Graph, cfg RandNEConfig) (*VectorEmbedding, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("baselines: RandNE Dim must be positive, got %d", cfg.Dim)
	}
	if len(cfg.Weights) == 0 {
		cfg.Weights = []float64{1, 1e2, 1e4, 1e5}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	u := matrix.OrthonormalizePool(nil, nil, matrix.GaussianDense(g.N, cfg.Dim, rng))
	if u.Cols < cfg.Dim {
		return nil, fmt.Errorf("baselines: RandNE projection lost rank (%d of %d)", u.Cols, cfg.Dim)
	}
	p := g.Transition()
	emb := u.Clone()
	emb.Scale(cfg.Weights[0])
	for i := 1; i < len(cfg.Weights); i++ {
		u = p.MulDense(u)
		term := u.Clone()
		term.Scale(cfg.Weights[i])
		emb.AddInPlace(term)
	}
	return &VectorEmbedding{Vecs: emb}, nil
}
