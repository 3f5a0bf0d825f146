package fora

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/par"
	"github.com/nrp-embed/nrp/internal/ppr"
	"github.com/nrp-embed/nrp/internal/splitmix"
)

func testGraph(t *testing.T, n, m int, directed bool, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.GenSBM(graph.SBMConfig{N: n, M: m, Communities: 4, Directed: directed, Seed: seed})
	if err != nil {
		t.Fatalf("GenSBM: %v", err)
	}
	return g
}

// checkGuarantee verifies the (ε, δ) contract of one query against
// power-iteration ground truth: every node with π(t) ≥ δ must be
// estimated within ε relative error. The engine's estimates are read from
// a full-width (K = n) query.
func checkGuarantee(t *testing.T, e *Engine, g *graph.Graph, seeds []int32, eps, delta float64) {
	t.Helper()
	res, err := e.Query(context.Background(), Query{Seeds: seeds, K: g.N, Epsilon: eps})
	if err != nil {
		t.Fatalf("Query(%v): %v", seeds, err)
	}
	est := make(map[int32]float64, len(res.Scores))
	for _, s := range res.Scores {
		est[s.Node] = s.Score
	}
	truth, err := ppr.MultiSource(g, seeds, e.Params().Alpha, 400)
	if err != nil {
		t.Fatalf("MultiSource: %v", err)
	}
	for v, pi := range truth {
		if pi < delta {
			continue
		}
		if err := math.Abs(est[int32(v)] - pi); err > eps*pi {
			t.Errorf("seeds %v node %d: |%.3g - %.3g| = %.3g > ε·π = %.3g",
				seeds, v, est[int32(v)], pi, err, eps*pi)
		}
	}
}

func TestGuaranteeAgainstPowerIteration(t *testing.T) {
	const eps = 0.3
	for _, tc := range []struct {
		name     string
		directed bool
		seed     int64
	}{
		{"undirected", false, 7},
		{"directed", true, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, 300, 1500, tc.directed, tc.seed)
			delta := 1.0 / float64(g.N)
			e, err := NewEngine(g, par.New(2), nil, Params{Epsilon: eps, Delta: delta, PFail: 1e-3})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			for _, seeds := range [][]int32{{0}, {1, 2, 3}, {42, 17, 99, 250}} {
				checkGuarantee(t, e, g, seeds, eps, delta)
			}
		})
	}
}

func TestGuaranteeWithWalkIndex(t *testing.T) {
	const eps = 0.3
	g := testGraph(t, 300, 1500, false, 7)
	delta := 1.0 / float64(g.N)
	pool := par.New(2)
	idx, err := BuildWalkIndex(context.Background(), g, pool, DefaultAlpha, 128, 5)
	if err != nil {
		t.Fatalf("BuildWalkIndex: %v", err)
	}
	e, err := NewEngine(g, pool, idx, Params{Epsilon: eps, Delta: delta, PFail: 1e-3})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := e.Query(context.Background(), Query{Seeds: []int32{1, 2}, K: 10})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Stats.UsedIndex {
		t.Fatalf("Stats.UsedIndex = false, want index-backed walks")
	}
	for _, seeds := range [][]int32{{0}, {1, 2, 3}} {
		checkGuarantee(t, e, g, seeds, eps, delta)
	}
	// A query overriding alpha cannot use an index built for a different
	// alpha; it must fall back to live walks and stay correct.
	res, err = e.Query(context.Background(), Query{Seeds: []int32{0}, K: 5, Alpha: 0.3})
	if err != nil {
		t.Fatalf("Query(alpha override): %v", err)
	}
	if res.Stats.UsedIndex {
		t.Fatalf("index built for alpha=%v served an alpha=0.3 query", DefaultAlpha)
	}
}

func TestQueryDeterministicForFixedPool(t *testing.T) {
	g := testGraph(t, 200, 900, false, 3)
	e, err := NewEngine(g, par.New(3), nil, Params{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	q := Query{Seeds: []int32{5, 9}, K: 20}
	a, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	b, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(a.Scores) != len(b.Scores) {
		t.Fatalf("result sizes differ: %d vs %d", len(a.Scores), len(b.Scores))
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatalf("rank %d differs: %+v vs %+v", i, a.Scores[i], b.Scores[i])
		}
	}
}

func TestDuplicateSeedsDeduped(t *testing.T) {
	g := testGraph(t, 200, 900, false, 3)
	e, err := NewEngine(g, nil, nil, Params{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	a, err := e.Query(context.Background(), Query{Seeds: []int32{5, 9, 5, 5}, K: 10})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	b, err := e.Query(context.Background(), Query{Seeds: []int32{9, 5}, K: 10})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatalf("rank %d differs after dedupe: %+v vs %+v", i, a.Scores[i], b.Scores[i])
		}
	}
}

func TestValidationSentinels(t *testing.T) {
	g := testGraph(t, 100, 400, false, 1)
	e, err := NewEngine(g, nil, nil, Params{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ctx := context.Background()
	if _, err := e.Query(ctx, Query{Seeds: nil, K: 5}); !errors.Is(err, ErrEmptySeedSet) {
		t.Errorf("empty seeds: got %v, want ErrEmptySeedSet", err)
	}
	if _, err := e.Query(ctx, Query{Seeds: []int32{0}, K: 5, Alpha: 1.5}); !errors.Is(err, ErrInvalidAlpha) {
		t.Errorf("alpha 1.5: got %v, want ErrInvalidAlpha", err)
	}
	if _, err := e.Query(ctx, Query{Seeds: []int32{0}, K: 5, Epsilon: -0.1}); !errors.Is(err, ErrInvalidEpsilon) {
		t.Errorf("epsilon -0.1: got %v, want ErrInvalidEpsilon", err)
	}
	if _, err := e.Query(ctx, Query{Seeds: []int32{int32(g.N)}, K: 5}); err == nil {
		t.Errorf("out-of-range seed accepted")
	}
	if _, err := e.Query(ctx, Query{Seeds: []int32{0}, K: 0}); err == nil {
		t.Errorf("k=0 accepted")
	}
	if _, err := NewEngine(g, nil, nil, Params{Alpha: -1}); !errors.Is(err, ErrInvalidAlpha) {
		t.Errorf("NewEngine alpha -1: got %v, want ErrInvalidAlpha", err)
	}
	if _, err := NewEngine(g, nil, nil, Params{Epsilon: math.Inf(1)}); !errors.Is(err, ErrInvalidEpsilon) {
		t.Errorf("NewEngine epsilon +Inf: got %v, want ErrInvalidEpsilon", err)
	}
}

func TestWorkspaceReuseAcrossQueries(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := testGraph(t, 500, 2500, false, 2)
	e, err := NewEngine(g, par.New(2), nil, Params{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// A sync.Pool legitimately misses when a GC cycle empties it or when
	// the caller migrates to a P whose slot is empty; pin GC and run on one
	// P so the count below measures pooling, not the scheduler.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 50; i++ {
		if _, err := e.Query(context.Background(), Query{Seeds: []int32{int32(i * 7 % g.N)}, K: 10}); err != nil {
			t.Fatalf("Query %d: %v", i, err)
		}
	}
	if builds := e.WorkspaceBuilds(); builds != 1 {
		t.Fatalf("50 sequential queries built %d workspaces, want 1 (sync.Pool reuse broken)", builds)
	}
}

func TestDanglingNodesLoseMass(t *testing.T) {
	// 0 → 1 → 2(dangling); mass reaching 2 that does not terminate there
	// is lost, exactly as in ppr.MultiSource.
	g, err := graph.New(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, true)
	if err != nil {
		t.Fatalf("graph.New: %v", err)
	}
	e, err := NewEngine(g, nil, nil, Params{Epsilon: 0.1, PFail: 1e-4})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	checkGuarantee(t, e, g, []int32{0}, 0.1, 1.0/3)
}

func TestQueryCanceledContext(t *testing.T) {
	g := testGraph(t, 100, 400, false, 1)
	e, err := NewEngine(g, nil, nil, Params{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Query(ctx, Query{Seeds: []int32{0}, K: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: got %v, want context.Canceled", err)
	}
}

func TestWalkIndexBuildDeterministicAcrossPoolSizes(t *testing.T) {
	g := testGraph(t, 200, 900, false, 3)
	a, err := BuildWalkIndex(context.Background(), g, par.New(1), DefaultAlpha, 8, 9)
	if err != nil {
		t.Fatalf("BuildWalkIndex(1 worker): %v", err)
	}
	b, err := BuildWalkIndex(context.Background(), g, par.New(3), DefaultAlpha, 8, 9)
	if err != nil {
		t.Fatalf("BuildWalkIndex(3 workers): %v", err)
	}
	ra, rb := a.Raw(), b.Raw()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("endpoint %d differs across pool sizes: %d vs %d", i, ra[i], rb[i])
		}
	}
}

func TestWalkIndexFromRawValidation(t *testing.T) {
	if _, err := WalkIndexFromRaw(2, DefaultAlpha, 2, 1, []int32{0, 1, 1}); err == nil {
		t.Errorf("short endpoint array accepted")
	}
	if _, err := WalkIndexFromRaw(2, DefaultAlpha, 2, 1, []int32{0, 1, 1, 2}); err == nil {
		t.Errorf("out-of-range endpoint accepted")
	}
	if _, err := WalkIndexFromRaw(2, 1.5, 2, 1, []int32{0, 1, 1, 0}); !errors.Is(err, ErrInvalidAlpha) {
		t.Errorf("bad alpha: got %v, want ErrInvalidAlpha", err)
	}
	wi, err := WalkIndexFromRaw(2, DefaultAlpha, 2, 1, []int32{0, 1, -1, 0})
	if err != nil {
		t.Fatalf("valid raw index rejected: %v", err)
	}
	if wi.Nodes() != 2 || wi.WalksPerNode() != 2 {
		t.Fatalf("shape accessors wrong: n=%d k=%d", wi.Nodes(), wi.WalksPerNode())
	}
}

func TestAliasTableMatchesWeights(t *testing.T) {
	w := []float64{0.1, 0.4, 0.2, 0.3}
	var at aliasTable
	at.build(w)
	rng := splitmix.New(123)
	const draws = 200000
	counts := make([]int, len(w))
	for i := 0; i < draws; i++ {
		counts[at.sample(&rng)]++
	}
	for i, wi := range w {
		got := float64(counts[i]) / draws
		if math.Abs(got-wi) > 0.01 {
			t.Errorf("slot %d frequency %.4f, want %.4f ± 0.01", i, got, wi)
		}
	}
}
