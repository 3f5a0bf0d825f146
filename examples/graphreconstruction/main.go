// Graph reconstruction: embed a graph, rank all node pairs by embedding
// score and measure which fraction of the top-K pairs are true edges —
// the protocol of the paper's §5.3 (Fig 5).
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/nrp-embed/nrp"
	"github.com/nrp-embed/nrp/internal/eval"
)

func main() {
	g, err := nrp.GenSBM(nrp.SBMConfig{
		N: 2000, M: 24000, Communities: 15, Seed: 23,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.N, g.NumEdges)

	opt := nrp.DefaultOptions()
	opt.Dim = 64
	ks := []int{10, 100, 1000, 10000}

	fmt.Println("method      " + header(ks))
	for _, m := range []struct {
		name  string
		embed func(context.Context, *nrp.Graph, nrp.Options, ...nrp.RunOption) (*nrp.Embedding, *nrp.Stats, error)
	}{
		{"ApproxPPR", nrp.EmbedPPRCtx},
		{"NRP", nrp.EmbedCtx},
	} {
		emb, _, err := m.embed(context.Background(), g, opt)
		if err != nil {
			log.Fatal(err)
		}
		// Rank every node pair (sampleFrac = 1).
		prec, err := eval.ReconstructionPrecision(g, emb, 1, ks, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s", m.name)
		for _, p := range prec {
			fmt.Printf("  %8.4f", p)
		}
		fmt.Println()
	}
}

func header(ks []int) string {
	s := ""
	for _, k := range ks {
		s += fmt.Sprintf("  prec@%-4d", k)
	}
	return s
}
