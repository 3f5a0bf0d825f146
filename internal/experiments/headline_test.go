package experiments

import (
	"context"
	"testing"

	"github.com/nrp-embed/nrp/internal/core"
	"github.com/nrp-embed/nrp/internal/eval"
)

// TestPaperHeadlineClaims asserts the paper's two central comparative
// results at reduced scale on wiki-sim: node reweighting improves link
// prediction over the raw PPR factorization (Fig 4) and improves graph
// reconstruction (Fig 5). Deterministic seeds keep it stable.
func TestPaperHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ds, err := FindDataset("wiki-sim")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ds.Gen(0.25)
	if err != nil {
		t.Fatal(err)
	}
	split, err := eval.NewLinkPredSplit(g, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Dim = 64
	opt.Seed = 1

	base, _, err := core.ApproxPPRCtx(context.Background(), split.Train, opt)
	if err != nil {
		t.Fatal(err)
	}
	nrpEmb, _, err := core.NRPCtx(context.Background(), split.Train, opt)
	if err != nil {
		t.Fatal(err)
	}
	baseAUC, err := eval.LinkPredictionAUC(base, split)
	if err != nil {
		t.Fatal(err)
	}
	nrpAUC, err := eval.LinkPredictionAUC(nrpEmb, split)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("link prediction: ApproxPPR %.4f, NRP %.4f", baseAUC, nrpAUC)
	if nrpAUC <= baseAUC {
		t.Errorf("Fig 4 claim failed: NRP %.4f <= ApproxPPR %.4f", nrpAUC, baseAUC)
	}

	// Reconstruction on the full graph (Fig 5 protocol).
	baseFull, _, err := core.ApproxPPRCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	nrpFull, _, err := core.NRPCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{1000, 10000}
	basePrec, err := eval.ReconstructionPrecision(g, baseFull, 1, ks, 3)
	if err != nil {
		t.Fatal(err)
	}
	nrpPrec, err := eval.ReconstructionPrecision(g, nrpFull, 1, ks, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reconstruction p@1k/p@10k: ApproxPPR %.3f/%.3f, NRP %.3f/%.3f",
		basePrec[0], basePrec[1], nrpPrec[0], nrpPrec[1])
	if nrpPrec[0] <= basePrec[0] {
		t.Errorf("Fig 5 claim failed at K=1000: NRP %.3f <= ApproxPPR %.3f", nrpPrec[0], basePrec[0])
	}
}
