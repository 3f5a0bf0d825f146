package nrp

import (
	"context"
	"testing"
)

func TestEmbedAttributedPublicAPI(t *testing.T) {
	g, err := GenSBM(SBMConfig{N: 150, M: 900, Communities: 3, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := GenAttributes(g, 8, 1.0, 72)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultAttributedOptions()
	opt.Dim = 8
	opt.Seed = 73
	emb, _, err := EmbedAttributedCtx(context.Background(), g, attrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(emb.Features(0)); got != 8+8 {
		t.Fatalf("feature width %d", got)
	}
	// Same-community pairs should outscore cross-community pairs on
	// average under the fused score.
	same, cross, nSame, nCross := 0.0, 0.0, 0, 0
	for u := 0; u < g.N; u += 2 {
		for v := 1; v < g.N; v += 3 {
			if u == v {
				continue
			}
			if g.Labels[u][0] == g.Labels[v][0] {
				same += emb.Score(u, v)
				nSame++
			} else {
				cross += emb.Score(u, v)
				nCross++
			}
		}
	}
	if same/float64(nSame) <= cross/float64(nCross) {
		t.Fatalf("fused score does not separate communities: %v vs %v",
			same/float64(nSame), cross/float64(nCross))
	}
}

func TestGenAttributesValidation(t *testing.T) {
	g, err := GenErdosRenyi(20, 40, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenAttributes(g, 4, 1, 1); err == nil {
		t.Fatal("unlabeled graph accepted")
	}
	lg, err := GenSBM(SBMConfig{N: 20, M: 40, Communities: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenAttributes(lg, 0, 1, 1); err == nil {
		t.Fatal("dim 0 accepted")
	}
	attrs, err := GenAttributes(lg, 4, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != lg.N || len(attrs[0]) != 4 {
		t.Fatalf("attr shape %dx%d", len(attrs), len(attrs[0]))
	}
}
