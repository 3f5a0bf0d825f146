package nrp

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	g, err := GenSBM(SBMConfig{N: 200, M: 1200, Communities: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Dim = 16
	opt.Seed = 2
	emb, _, err := EmbedCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if emb.N() != g.N || emb.Dim() != 8 {
		t.Fatalf("embedding shape n=%d k'=%d", emb.N(), emb.Dim())
	}

	// True edges should outscore non-edges on average.
	edgeMean, nonMean := 0.0, 0.0
	edges := g.Edges()
	for _, e := range edges {
		edgeMean += emb.Score(int(e.U), int(e.V))
	}
	edgeMean /= float64(len(edges))
	count := 0
	for u := 0; u < g.N; u += 2 {
		for v := 1; v < g.N; v += 5 {
			if u != v && !g.HasEdge(u, v) {
				nonMean += emb.Score(u, v)
				count++
			}
		}
	}
	nonMean /= float64(count)
	if edgeMean <= nonMean {
		t.Fatalf("edge mean %v <= non-edge mean %v", edgeMean, nonMean)
	}
}

func TestEmbedPPRAndWeights(t *testing.T) {
	g, err := GenSBM(SBMConfig{N: 100, M: 500, Communities: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Dim = 8
	base, _, err := EmbedPPRCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	fw, bw, _, err := LearnWeightsCtx(context.Background(), g, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(fw) != g.N || len(bw) != g.N {
		t.Fatal("weight lengths wrong")
	}
}

// TestLearnWeightsCtxValidatesOptions pins that LearnWeightsCtx rejects
// inconsistent options up front like every other public entry point.
func TestLearnWeightsCtxValidatesOptions(t *testing.T) {
	g, err := GenSBM(SBMConfig{N: 40, M: 150, Communities: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Dim = 8
	base, _, err := EmbedPPRCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	bad := opt
	bad.Lambda = -1
	if _, _, _, err := LearnWeightsCtx(context.Background(), g, base, bad); err == nil {
		t.Fatal("invalid Lambda accepted")
	} else if want := "nrp: invalid options:"; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q not wrapped as %q", err, want)
	}
}

func TestGraphFileRoundTrip(t *testing.T) {
	g, err := GenErdosRenyi(50, 120, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteGraph(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := LoadGraph(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != g.N || back.NumEdges != g.NumEdges {
		t.Fatalf("round trip lost data: n=%d m=%d", back.N, back.NumEdges)
	}
}

func TestLoadGraphMissingFile(t *testing.T) {
	if _, err := LoadGraph("/definitely/not/here.txt", false); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestEmbeddingSaveLoadViaPublicAPI(t *testing.T) {
	g, err := GenSBM(SBMConfig{N: 60, M: 250, Communities: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Dim = 8
	emb, _, err := EmbedCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEmbedding(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Score(0, 1) != emb.Score(0, 1) {
		t.Fatal("save/load changed scores")
	}
}

func TestReadGraphFromString(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("# demo\n0 1\n1 2\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.NumEdges != 2 {
		t.Fatalf("parsed n=%d m=%d", g.N, g.NumEdges)
	}
}
