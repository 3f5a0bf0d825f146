package experiments

import (
	"fmt"

	"github.com/nrp-embed/nrp/internal/core"
	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/ppr"
)

// Fig1Graph builds the paper's 9-node example graph: v1–v5 joined by
// every edge but (v1, v5) and (v2, v4), then the chain v5–v6–v7–v8–v9.
// The edge set is recovered from Table 1, whose v2, v4 and v9 rows it
// reproduces to the printed three decimals.
func Fig1Graph() (*graph.Graph, error) {
	raw := [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 4}, {2, 3}, {2, 4}, {3, 4},
		{4, 5}, {5, 6}, {6, 7}, {7, 8},
	}
	edges := make([]graph.Edge, len(raw))
	for i, e := range raw {
		edges[i] = graph.Edge{U: e[0], V: e[1]}
	}
	return graph.New(9, edges, false)
}

func init() {
	register(Runner{
		Name:  "table1",
		Paper: "Table 1: PPR values for v2, v4, v7, v9 on the Fig-1 graph (α=0.15)",
		Run:   runTable1,
	})
	register(Runner{
		Name:  "example1",
		Paper: "Fig 2 / Example 1: ApproxPPR factors on the Fig-1 graph",
		Run:   runExample1,
	})
}

func runTable1(cfg Config) ([]*Table, error) {
	g, err := Fig1Graph()
	if err != nil {
		return nil, err
	}
	pi, err := ppr.Exact(g, 0.15, 300)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table 1: PPR for v2, v4, v7 and v9 in Fig. 1 (α = 0.15)",
		Header: []string{"source", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9"},
	}
	for _, u := range []int{1, 3, 6, 8} {
		row := []string{fmt.Sprintf("π(v%d,·)", u+1)}
		for v := 0; v < g.N; v++ {
			row = append(row, f3(pi.At(u, v)))
		}
		t.AddRow(row...)
	}
	note := &Table{
		Title:  "Table 1 notes",
		Header: []string{"note"},
	}
	note.AddRow("rows v2, v4, v9 match the paper to its printed 3 decimals")
	note.AddRow("the paper's v7 row does not match PPR on the graph the other three rows match")
	return []*Table{t, note}, nil
}

func runExample1(cfg Config) ([]*Table, error) {
	cfg = cfg.defaults()
	g, err := Fig1Graph()
	if err != nil {
		return nil, err
	}
	// Example 1 uses k′ = 2; an exact rank-2 subspace cannot reproduce the
	// paper's illustrated chain-side values (σ₃…σ₅ ≈ 1.6 are not negligible
	// and the rank-2 subspace concentrates on the v1–v5 clique), so the factors
	// are reported at k′ = 2 and the headline pair scores also at k′ = 4.
	opt := core.DefaultOptions()
	opt.Dim = 4
	opt.Seed = cfg.Seed
	emb2, _, err := core.ApproxPPRCtx(cfg.ctx(), g, opt)
	if err != nil {
		return nil, err
	}
	opt.Dim = 8
	emb4, _, err := core.ApproxPPRCtx(cfg.ctx(), g, opt)
	if err != nil {
		return nil, err
	}
	factors := &Table{
		Title:  "Example 1: ApproxPPR factors at k'=2 (X row | Y row per node)",
		Header: []string{"node", "X[0]", "X[1]", "Y[0]", "Y[1]"},
	}
	for v := 0; v < g.N; v++ {
		factors.AddRow(
			fmt.Sprintf("v%d", v+1),
			f3(emb2.X.At(v, 0)), f3(emb2.X.At(v, 1)),
			f3(emb2.Y.At(v, 0)), f3(emb2.Y.At(v, 1)),
		)
	}
	pi, err := ppr.Exact(g, opt.Alpha, 300)
	if err != nil {
		return nil, err
	}
	scores := &Table{
		Title:  "Example 1: X_u·Y_vᵀ vs π(u,v) (paper: 0.119 and 0.166)",
		Header: []string{"pair", "π(u,v)", "score k'=2", "score k'=4"},
	}
	scores.AddRow("(v2,v4)", f3(pi.At(1, 3)), f3(emb2.Score(1, 3)), f3(emb4.Score(1, 3)))
	scores.AddRow("(v9,v7)", f3(pi.At(8, 6)), f3(emb2.Score(8, 6)), f3(emb4.Score(8, 6)))

	// Average factorization quality across all pairs, tying the example to
	// Theorem 1.
	worst, sum := 0.0, 0.0
	for u := 0; u < g.N; u++ {
		for v := 0; v < g.N; v++ {
			if u == v {
				continue
			}
			d := pi.At(u, v) - emb4.Score(u, v)
			if d < 0 {
				d = -d
			}
			sum += d
			if d > worst {
				worst = d
			}
		}
	}
	quality := &Table{
		Title:  "Example 1: factorization error at k'=4",
		Header: []string{"max |π-XYᵀ|", "mean |π-XYᵀ|"},
	}
	quality.AddRow(f3(worst), f3(sum/float64(g.N*(g.N-1))))
	return []*Table{factors, scores, quality}, nil
}
