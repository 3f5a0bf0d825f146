// Node classification: embed a labeled graph with NRP, train a one-vs-rest
// logistic regression on the normalized embedding features of half the
// nodes, and report Micro-F1 on the rest — the protocol of the paper's
// §5.4 (Fig 6).
//
// This example uses the internal evaluation suite directly, showing how a
// downstream user would plug NRP features into their own classifier.
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
		N: 4000, M: 40000, Communities: 25, Seed: 17,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges, %d label classes\n", g.N, g.NumEdges, g.NumLabels)

	opt := nrp.DefaultOptions()
	opt.Dim = 64
	emb, _, err := nrp.EmbedCtx(context.Background(), g, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("train%   Micro-F1   Macro-F1")
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		res, err := eval.NodeClassification(emb.Features, g.Labels, g.NumLabels, frac,
			eval.LogRegConfig{Seed: 5, Epochs: 12})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5.0f%%   %8.4f   %8.4f\n", frac*100, res.Micro, res.Macro)
	}
}
