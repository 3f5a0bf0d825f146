package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/ppr"
)

// Property: learned weights always respect the 1/n lower bound of Eq. (6),
// across random graphs, dimensions and regularizers.
func TestWeightsLowerBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(40)
		g, err := graph.GenSBM(graph.SBMConfig{N: n, M: 4 * n, Communities: 3, Directed: seed%2 == 0, Seed: seed})
		if err != nil {
			return false
		}
		opt := DefaultOptions()
		opt.Dim = 8
		opt.L2 = 3
		opt.Lambda = []float64{0, 1, 10}[rng.Intn(3)]
		opt.Seed = seed
		emb, _, err := ApproxPPRCtx(context.Background(), g, opt)
		if err != nil {
			return false
		}
		fw, bw, _, err := LearnWeightsCtx(context.Background(), g, emb, opt)
		if err != nil {
			return false
		}
		minW := 1 / float64(n)
		for v := 0; v < n; v++ {
			if fw[v] < minW-1e-12 || bw[v] < minW-1e-12 {
				return false
			}
			if math.IsNaN(fw[v]) || math.IsNaN(bw[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: Theorem 1's bound holds across random graphs (checked against
// the exact PPR matrix and the exact singular spectrum).
func TestTheorem1Property(t *testing.T) {
	f := func(seed int64) bool {
		g, err := graph.GenSBM(graph.SBMConfig{N: 50, M: 220, Communities: 3, Seed: seed})
		if err != nil {
			return false
		}
		opt := DefaultOptions()
		opt.Dim = 12
		opt.Seed = seed
		emb, _, err := ApproxPPRCtx(context.Background(), g, opt)
		if err != nil {
			return false
		}
		pi, err := ppr.Exact(g, opt.Alpha, 300)
		if err != nil {
			return false
		}
		_, sigma, _ := matrix.SVD(g.Adj.ToDense())
		kPrime := opt.Dim / 2
		bound := (1+opt.Epsilon)*sigma[kPrime]*(1-opt.Alpha)*(1-math.Pow(1-opt.Alpha, float64(opt.L1))) +
			math.Pow(1-opt.Alpha, float64(opt.L1+1))
		for u := 0; u < g.N; u++ {
			for v := 0; v < g.N; v++ {
				if u == v {
					continue
				}
				if math.Abs(pi.At(u, v)-emb.Score(u, v)) > bound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Property: embeddings contain no NaN/Inf across random inputs, including
// graphs with dangling nodes.
func TestEmbeddingsFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(30)
		// Sparse directed graph: dangling nodes are likely.
		var edges []graph.Edge
		for i := 0; i < 2*n; i++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
		}
		g, err := graph.New(n, edges, true)
		if err != nil {
			return false
		}
		opt := DefaultOptions()
		opt.Dim = 8
		opt.L2 = 2
		opt.Seed = seed
		emb, _, err := NRPCtx(context.Background(), g, opt)
		if err != nil {
			return false
		}
		for _, m := range []*matrix.Dense{emb.X, emb.Y} {
			for _, v := range m.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
