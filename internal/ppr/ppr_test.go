package ppr

import (
	"math"
	"testing"

	"github.com/nrp-embed/nrp/internal/graph"
)

// fig1 builds the paper's Fig-1 example graph, the edge set of
// experiments.Fig1Graph.
func fig1(t testing.TB) *graph.Graph {
	t.Helper()
	raw := [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 4}, {2, 3}, {2, 4}, {3, 4},
		{4, 5}, {5, 6}, {6, 7}, {7, 8},
	}
	edges := make([]graph.Edge, len(raw))
	for i, e := range raw {
		edges[i] = graph.Edge{U: e[0], V: e[1]}
	}
	g, err := graph.New(9, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTable1 reproduces the paper's Table 1 (α = 0.15) for the three rows
// that are internally consistent in the paper (v2, v4, v9); values are
// printed there to three decimals. The paper's v7 row does not match PPR
// on the graph the other three rows match, and is excluded.
func TestTable1(t *testing.T) {
	g := fig1(t)
	pi, err := Exact(g, 0.15, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]float64{
		1: {0.15, 0.269, 0.188, 0.118, 0.17, 0.048, 0.029, 0.019, 0.008},  // π(v2,·)
		3: {0.15, 0.118, 0.188, 0.269, 0.17, 0.048, 0.029, 0.019, 0.008},  // π(v4,·)
		8: {0.02, 0.024, 0.031, 0.024, 0.056, 0.083, 0.168, 0.311, 0.282}, // π(v9,·)
	}
	for u, row := range want {
		for v, w := range row {
			if d := math.Abs(pi.At(u, v) - w); d > 0.0011 {
				t.Errorf("π(v%d,v%d) = %.4f, paper %.3f (Δ=%.4f)", u+1, v+1, pi.At(u, v), w, d)
			}
		}
	}
}

func TestSingleSourceMatchesExact(t *testing.T) {
	g := fig1(t)
	pi, err := Exact(g, 0.2, 150)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u++ {
		row, err := SingleSource(g, u, 0.2, 150)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N; v++ {
			if math.Abs(row[v]-pi.At(u, v)) > 1e-12 {
				t.Fatalf("SingleSource(%d)[%d] mismatch", u, v)
			}
		}
	}
}

func TestPPRRowsSumToOne(t *testing.T) {
	g := fig1(t)
	pi, err := Exact(g, 0.15, 500)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u++ {
		s := 0.0
		for v := 0; v < g.N; v++ {
			s += pi.At(u, v)
			if pi.At(u, v) < 0 {
				t.Fatalf("negative PPR at (%d,%d)", u, v)
			}
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", u, s)
		}
	}
}

func TestPPRSelfTerminationLowerBound(t *testing.T) {
	g := fig1(t)
	alpha := 0.3
	pi, err := Exact(g, alpha, 200)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u++ {
		if pi.At(u, u) < alpha {
			t.Fatalf("π(%d,%d)=%v < α", u, u, pi.At(u, u))
		}
	}
}

func TestPPRDanglingNode(t *testing.T) {
	// 0 -> 1 -> 2, node 2 dangling.
	g, err := graph.New(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	alpha := 0.15
	row, err := SingleSource(g, 0, alpha, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Closed form: π(0,0)=α, π(0,1)=α(1−α), π(0,2)=α(1−α)².
	want := []float64{alpha, alpha * (1 - alpha), alpha * (1 - alpha) * (1 - alpha)}
	for v, w := range want {
		if math.Abs(row[v]-w) > 1e-12 {
			t.Fatalf("π(0,%d)=%v want %v", v, row[v], w)
		}
	}
	// Total mass < 1 because the walk halts at the dangling node.
	if s := row[0] + row[1] + row[2]; s >= 1 {
		t.Fatalf("dangling walk mass %v should be < 1", s)
	}
}

func TestTruncatedMatrixAgainstDefinition(t *testing.T) {
	g := fig1(t)
	alpha, l1 := 0.15, 20
	trunc, err := TruncatedMatrix(g, alpha, l1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Exact(g, alpha, 400)
	if err != nil {
		t.Fatal(err)
	}
	// Π′ = Π − αI − tail; off-diagonal entries must agree within the tail
	// bound (1−α)^{l1+1}.
	tail := math.Pow(1-alpha, float64(l1+1))
	for u := 0; u < g.N; u++ {
		for v := 0; v < g.N; v++ {
			if u == v {
				continue
			}
			if d := math.Abs(trunc.At(u, v) - full.At(u, v)); d > tail {
				t.Fatalf("Π′(%d,%d) off by %v > tail %v", u, v, d, tail)
			}
		}
	}
	// Diagonal of Π′ excludes the αI term.
	for u := 0; u < g.N; u++ {
		if trunc.At(u, u) > full.At(u, u)-0.9*alpha {
			t.Fatalf("Π′ diagonal should drop αI: %v vs %v", trunc.At(u, u), full.At(u, u))
		}
	}
}

func TestForwardPushApproximatesExact(t *testing.T) {
	g := fig1(t)
	alpha, rmax := 0.15, 1e-7
	exact, err := Exact(g, alpha, 400)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u++ {
		approx := ForwardPush(g, u, alpha, rmax)
		for v := 0; v < g.N; v++ {
			if d := math.Abs(approx[int32(v)] - exact.At(u, v)); d > 1e-4 {
				t.Fatalf("push π(%d,%d) off by %v", u, v, d)
			}
		}
	}
}

func TestForwardPushUnderestimates(t *testing.T) {
	// Push reserves only part of the residual, so estimates never exceed
	// the exact values.
	g := fig1(t)
	exact, _ := Exact(g, 0.15, 400)
	for u := 0; u < g.N; u++ {
		approx := ForwardPush(g, u, 0.15, 1e-3)
		for v, p := range approx {
			if p > exact.At(u, int(v))+1e-9 {
				t.Fatalf("push overestimates π(%d,%d): %v > %v", u, v, p, exact.At(u, int(v)))
			}
		}
	}
}

func TestForwardPushSparsity(t *testing.T) {
	// On a larger graph a loose rmax should touch far fewer than n nodes.
	g, err := graph.GenSBM(graph.SBMConfig{N: 2000, M: 8000, Communities: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	approx := ForwardPush(g, 0, 0.15, 1e-2)
	if len(approx) == 0 || len(approx) > g.N/2 {
		t.Fatalf("push touched %d nodes of %d", len(approx), g.N)
	}
}

func TestPPRValidation(t *testing.T) {
	g := fig1(t)
	if _, err := Exact(g, 0, 10); err == nil {
		t.Fatal("alpha=0 accepted")
	}
	if _, err := Exact(g, 1, 10); err == nil {
		t.Fatal("alpha=1 accepted")
	}
	if _, err := SingleSource(g, -1, 0.15, 10); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := SingleSource(g, 99, 0.15, 10); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := TruncatedMatrix(g, 0.15, 0); err == nil {
		t.Fatal("l1=0 accepted")
	}
}

func TestPPRDirectedAsymmetry(t *testing.T) {
	g, err := graph.New(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, true)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := Exact(g, 0.15, 300)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi.At(0, 1)-pi.At(1, 0)) < 1e-6 {
		t.Fatal("directed cycle should give asymmetric PPR")
	}
}
