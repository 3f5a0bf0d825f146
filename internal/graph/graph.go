// Package graph provides the graph substrate of the NRP reproduction:
// a CSR-backed directed/undirected graph type, edge-list and label I/O,
// and the synthetic generators standing in for the paper's datasets
// (Erdős–Rényi for the scalability tests, degree-skewed stochastic block
// models for the labeled social networks, and evolving graphs for the
// VK/Digg link-prediction experiment).
package graph

import (
	"fmt"

	"github.com/nrp-embed/nrp/internal/sparse"
)

// Edge is a directed or undirected edge between two node ids.
type Edge struct {
	U, V int32
}

// Graph is a node-indexed graph with CSR adjacency. For undirected graphs
// each edge {u,v} is stored as both arcs (u,v) and (v,u), following the
// paper's convention (§3.1).
type Graph struct {
	// N is the number of nodes; nodes are 0..N-1.
	N int
	// Directed reports the input semantics: false means every edge was
	// symmetrized on construction.
	Directed bool
	// NumEdges is the number of input edges (undirected edges counted once).
	NumEdges int
	// Adj is the n×n out-adjacency matrix with unit weights.
	Adj *sparse.CSR
	// RAdj is Adjᵀ, the in-adjacency matrix.
	RAdj *sparse.CSR
	// Labels optionally assigns each node a set of class labels
	// (multi-label); nil when the graph is unlabeled.
	Labels [][]int32
	// NumLabels is the number of distinct label classes (0 if unlabeled).
	NumLabels int
}

// New builds a graph from an edge list. Self-loops and duplicate edges are
// dropped. For undirected graphs, both orientations of each edge are
// inserted.
func New(n int, edges []Edge, directed bool) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: need at least one node, got %d", n)
	}
	for _, e := range edges {
		if int(e.U) < 0 || int(e.U) >= n || int(e.V) < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) outside [0,%d)", e.U, e.V, n)
		}
	}
	// Deduplication rides on FromTriples' counting sort instead of a hash
	// set: duplicate arcs land adjacent and are summed, so clamping the
	// values back to 1 afterwards yields exactly the unit-weight adjacency
	// a per-edge dedup would build, in O(nnz + n) with no map.
	triples := make([]sparse.Triple, 0, 2*len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue // drop self-loops
		}
		triples = append(triples, sparse.Triple{Row: e.U, Col: e.V, Val: 1})
		if !directed {
			triples = append(triples, sparse.Triple{Row: e.V, Col: e.U, Val: 1})
		}
	}
	adj, err := sparse.FromTriples(n, n, triples)
	if err != nil {
		return nil, err
	}
	for i := range adj.Val {
		adj.Val[i] = 1
	}
	numEdges := adj.NNZ()
	if !directed {
		// Each unique undirected edge was inserted as both arcs.
		numEdges /= 2
	}
	g := &Graph{
		N:        n,
		Directed: directed,
		NumEdges: numEdges,
		Adj:      adj,
		RAdj:     adj.Transpose(),
	}
	return g, nil
}

// OutDeg returns the out-degree of node v.
func (g *Graph) OutDeg(v int) int { return g.Adj.RowNNZ(v) }

// InDeg returns the in-degree of node v.
func (g *Graph) InDeg(v int) int { return g.RAdj.RowNNZ(v) }

// OutDegrees returns the out-degree of every node as float64.
func (g *Graph) OutDegrees() []float64 {
	d := make([]float64, g.N)
	for v := 0; v < g.N; v++ {
		d[v] = float64(g.OutDeg(v))
	}
	return d
}

// InDegrees returns the in-degree of every node as float64.
func (g *Graph) InDegrees() []float64 {
	d := make([]float64, g.N)
	for v := 0; v < g.N; v++ {
		d[v] = float64(g.InDeg(v))
	}
	return d
}

// OutNeighbors returns the out-neighbor ids of v, aliasing internal storage.
func (g *Graph) OutNeighbors(v int) []int32 {
	return g.Adj.ColIdx[g.Adj.RowPtr[v]:g.Adj.RowPtr[v+1]]
}

// InNeighbors returns the in-neighbor ids of v, aliasing internal storage.
func (g *Graph) InNeighbors(v int) []int32 {
	return g.RAdj.ColIdx[g.RAdj.RowPtr[v]:g.RAdj.RowPtr[v+1]]
}

// HasEdge reports whether the arc (u,v) exists (for undirected graphs this
// is symmetric).
func (g *Graph) HasEdge(u, v int) bool { return g.Adj.At(u, v) != 0 }

// Arcs reports the number of stored arcs (2·NumEdges for undirected graphs).
func (g *Graph) Arcs() int { return g.Adj.NNZ() }

// Transition returns the random-walk transition matrix P = D⁻¹A. Rows of
// out-degree-0 nodes are zero: a walk reaching them halts, which keeps
// Eq. (1) of the paper well defined on graphs with dangling nodes.
func (g *Graph) Transition() *sparse.CSR {
	return g.Adj.ScaleRows(g.InvOutDegrees())
}

// InvOutDegrees returns the element-wise inverse out-degree vector used as
// D⁻¹ in Algorithm 1, with zeros for dangling nodes.
func (g *Graph) InvOutDegrees() []float64 {
	inv := make([]float64, g.N)
	for v := 0; v < g.N; v++ {
		if d := g.OutDeg(v); d > 0 {
			inv[v] = 1 / float64(d)
		}
	}
	return inv
}

// Transpose returns the graph with every arc reversed. Undirected graphs
// are returned unchanged (a fresh value sharing the CSR storage).
func (g *Graph) Transpose() *Graph {
	if !g.Directed {
		c := *g
		return &c
	}
	return &Graph{
		N:         g.N,
		Directed:  true,
		NumEdges:  g.NumEdges,
		Adj:       g.RAdj,
		RAdj:      g.Adj,
		Labels:    g.Labels,
		NumLabels: g.NumLabels,
	}
}

// Edges materializes the input-semantics edge list: each undirected edge
// appears once with U < V; each directed arc appears once.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges)
	for u := 0; u < g.N; u++ {
		for _, v := range g.OutNeighbors(u) {
			if !g.Directed && int32(u) > v {
				continue
			}
			out = append(out, Edge{U: int32(u), V: v})
		}
	}
	return out
}

// WithLabels returns a shallow copy of g carrying the given node labels.
func (g *Graph) WithLabels(labels [][]int32, numLabels int) (*Graph, error) {
	if len(labels) != g.N {
		return nil, fmt.Errorf("graph: %d label rows for %d nodes", len(labels), g.N)
	}
	for v, ls := range labels {
		for _, l := range ls {
			if int(l) < 0 || int(l) >= numLabels {
				return nil, fmt.Errorf("graph: node %d has label %d outside [0,%d)", v, l, numLabels)
			}
		}
	}
	c := *g
	c.Labels = labels
	c.NumLabels = numLabels
	return &c, nil
}

// Stats summarizes a graph the way the paper's Table 3 does.
type Stats struct {
	Nodes, Edges int
	Directed     bool
	NumLabels    int
	MaxOutDeg    int
	AvgDeg       float64
}

// Stats computes summary statistics for dataset tables.
func (g *Graph) Stats() Stats {
	maxOut := 0
	for v := 0; v < g.N; v++ {
		if d := g.OutDeg(v); d > maxOut {
			maxOut = d
		}
	}
	return Stats{
		Nodes:     g.N,
		Edges:     g.NumEdges,
		Directed:  g.Directed,
		NumLabels: g.NumLabels,
		MaxOutDeg: maxOut,
		AvgDeg:    float64(g.Adj.NNZ()) / float64(g.N),
	}
}
