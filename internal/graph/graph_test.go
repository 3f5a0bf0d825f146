package graph

import (
	"math"
	"strings"
	"testing"
)

// fig1Edges is the example graph of the paper's Fig 1, the edge set of
// experiments.Fig1Graph (recovered from Table 1).
func fig1Edges() []Edge {
	raw := [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 4}, {2, 3}, {2, 4}, {3, 4},
		{4, 5}, {5, 6}, {6, 7}, {7, 8},
	}
	edges := make([]Edge, len(raw))
	for i, e := range raw {
		edges[i] = Edge{U: e[0], V: e[1]}
	}
	return edges
}

// Fig1 builds the undirected 9-node example graph.
func Fig1(t testing.TB) *Graph {
	t.Helper()
	g, err := New(9, fig1Edges(), false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewUndirectedSymmetrizes(t *testing.T) {
	g := Fig1(t)
	if g.NumEdges != 12 {
		t.Fatalf("NumEdges=%d want 12", g.NumEdges)
	}
	if g.Arcs() != 24 {
		t.Fatalf("Arcs=%d want 24", g.Arcs())
	}
	for u := 0; u < g.N; u++ {
		for _, v := range g.OutNeighbors(u) {
			if !g.HasEdge(int(v), u) {
				t.Fatalf("missing reverse arc (%d,%d)", v, u)
			}
		}
	}
}

func TestFig1Degrees(t *testing.T) {
	g := Fig1(t)
	// Matches Example 2's initial forward weights: dout = [3 3 4 3 4 2 2 2 1].
	want := []int{3, 3, 4, 3, 4, 2, 2, 2, 1}
	for v, w := range want {
		if g.OutDeg(v) != w {
			t.Fatalf("deg(v%d)=%d want %d", v+1, g.OutDeg(v), w)
		}
		if g.InDeg(v) != w {
			t.Fatalf("indeg(v%d)=%d want %d (undirected)", v+1, g.InDeg(v), w)
		}
	}
}

func TestNewDirected(t *testing.T) {
	g, err := New(3, []Edge{{0, 1}, {1, 2}, {2, 0}, {0, 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges != 4 || g.Arcs() != 4 {
		t.Fatalf("edges=%d arcs=%d", g.NumEdges, g.Arcs())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("directed semantics broken")
	}
	if g.OutDeg(0) != 2 || g.InDeg(0) != 1 {
		t.Fatalf("deg wrong: out=%d in=%d", g.OutDeg(0), g.InDeg(0))
	}
}

func TestNewDropsSelfLoopsAndDuplicates(t *testing.T) {
	g, err := New(3, []Edge{{0, 0}, {0, 1}, {0, 1}, {1, 0}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges != 1 {
		t.Fatalf("NumEdges=%d want 1", g.NumEdges)
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	if _, err := New(2, []Edge{{0, 5}}, false); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := New(0, nil, false); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestTransitionRowsSumToOne(t *testing.T) {
	g := Fig1(t)
	p := g.Transition()
	sums := p.RowSums()
	for v, s := range sums {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d of P sums to %v", v, s)
		}
	}
}

func TestTransitionDanglingNode(t *testing.T) {
	g, err := New(3, []Edge{{0, 1}, {1, 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Transition()
	sums := p.RowSums()
	if sums[2] != 0 {
		t.Fatalf("dangling row should be zero, got %v", sums[2])
	}
	if sums[0] != 1 || sums[1] != 1 {
		t.Fatalf("non-dangling rows: %v", sums)
	}
}

func TestTransposeDirected(t *testing.T) {
	g, _ := New(3, []Edge{{0, 1}, {1, 2}}, true)
	tr := g.Transpose()
	if !tr.HasEdge(1, 0) || !tr.HasEdge(2, 1) || tr.HasEdge(0, 1) {
		t.Fatal("transpose arcs wrong")
	}
	if tr.OutDeg(0) != g.InDeg(0) {
		t.Fatal("transpose degrees wrong")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := Fig1(t)
	edges := g.Edges()
	if len(edges) != g.NumEdges {
		t.Fatalf("Edges() returned %d, want %d", len(edges), g.NumEdges)
	}
	g2, err := New(g.N, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Adj.ToDense().MaxAbsDiff(g.Adj.ToDense()) != 0 {
		t.Fatal("round trip changed adjacency")
	}
}

func TestWithLabels(t *testing.T) {
	g := Fig1(t)
	labels := make([][]int32, g.N)
	for v := range labels {
		labels[v] = []int32{int32(v % 3)}
	}
	lg, err := g.WithLabels(labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lg.NumLabels != 3 || lg.Labels[4][0] != 1 {
		t.Fatal("labels not attached")
	}
	if _, err := g.WithLabels(labels[:2], 3); err == nil {
		t.Fatal("short labels accepted")
	}
	bad := make([][]int32, g.N)
	bad[0] = []int32{7}
	if _, err := g.WithLabels(bad, 3); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestStats(t *testing.T) {
	g := Fig1(t)
	s := g.Stats()
	if s.Nodes != 9 || s.Edges != 12 || s.MaxOutDeg != 4 {
		t.Fatalf("stats %+v", s)
	}
	if math.Abs(s.AvgDeg-24.0/9.0) > 1e-12 {
		t.Fatalf("avg deg %v", s.AvgDeg)
	}
}

func TestReadWriteEdgeList(t *testing.T) {
	g := Fig1(t)
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(sb.String()), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.NumEdges != g.NumEdges {
		t.Fatalf("round trip: n=%d m=%d", g2.N, g2.NumEdges)
	}
	if g2.Adj.ToDense().MaxAbsDiff(g.Adj.ToDense()) != 0 {
		t.Fatal("edge list round trip changed graph")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("1\n"), false, 0); err == nil {
		t.Fatal("short line accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n"), false, 0); err == nil {
		t.Fatal("non-numeric accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("-1 2\n"), false, 0); err == nil {
		t.Fatal("negative id accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("# only comments\n"), false, 0); err == nil {
		t.Fatal("empty list with no min nodes accepted")
	}
}

func TestReadEdgeListMinNodes(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), false, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 10 {
		t.Fatalf("minNodes ignored: n=%d", g.N)
	}
}

func TestReadWriteLabels(t *testing.T) {
	labels := [][]int32{{0, 2}, nil, {1}}
	var sb strings.Builder
	if err := WriteLabels(&sb, labels); err != nil {
		t.Fatal(err)
	}
	got, numLabels, err := ReadLabels(strings.NewReader(sb.String()), 3)
	if err != nil {
		t.Fatal(err)
	}
	if numLabels != 3 {
		t.Fatalf("numLabels=%d", numLabels)
	}
	if len(got[0]) != 2 || got[0][1] != 2 || len(got[1]) != 0 || got[2][0] != 1 {
		t.Fatalf("labels round trip: %v", got)
	}
}
