package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nrp-embed/nrp"
	"github.com/nrp-embed/nrp/internal/gio"
	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/serve"
)

func writeTestGraph(t *testing.T, dir string) (graphPath string, g *nrp.Graph) {
	t.Helper()
	graphPath = filepath.Join(dir, "g.txt")
	g, err := nrp.GenSBM(nrp.SBMConfig{N: 100, M: 500, Communities: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nrp.WriteGraph(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return graphPath, g
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	graphPath, g := writeTestGraph(t, dir)
	embPath := filepath.Join(dir, "emb.bin")

	if err := run(context.Background(), []string{"-input", graphPath, "-output", embPath, "-k", "16"}); err != nil {
		t.Fatal(err)
	}
	ef, err := os.Open(embPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	emb, err := nrp.LoadEmbedding(ef)
	if err != nil {
		t.Fatal(err)
	}
	if emb.N() != g.N || emb.Dim() != 8 {
		t.Fatalf("embedding shape %dx%d", emb.N(), emb.Dim())
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{}); err == nil {
		t.Fatal("missing flags accepted")
	}
	if err := run(ctx, []string{"-input", "/nope", "-output", "/tmp/x"}); err == nil {
		t.Fatal("missing input file accepted")
	}
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.txt")
	os.WriteFile(graphPath, []byte("0 1\n"), 0o644)
	if err := run(ctx, []string{"-input", graphPath, "-output", filepath.Join(dir, "e"), "-method", "bogus"}); err == nil {
		t.Fatal("unknown method accepted")
	}
	// Invalid options must fail fast, before the graph is even read: an
	// odd dimensionality against a nonexistent input still reports the
	// option error.
	err := run(ctx, []string{"-input", "/definitely/not/here", "-output", filepath.Join(dir, "e"), "-k", "7"})
	if err == nil {
		t.Fatal("odd -k accepted")
	}
	if os.IsNotExist(errors.Unwrap(err)) {
		t.Fatalf("graph was opened before options were validated: %v", err)
	}
}

func TestRunCancelled(t *testing.T) {
	dir := t.TempDir()
	graphPath, _ := writeTestGraph(t, dir)
	embPath := filepath.Join(dir, "emb.bin")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-input", graphPath, "-output", embPath, "-k", "16"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, statErr := os.Stat(embPath); statErr == nil {
		t.Fatal("cancelled run wrote an output file")
	}
}

func TestRunTopK(t *testing.T) {
	dir := t.TempDir()
	graphPath, _ := writeTestGraph(t, dir)
	embPath := filepath.Join(dir, "emb.bin")
	if err := run(context.Background(), []string{"-input", graphPath, "-output", embPath, "-k", "16"}); err != nil {
		t.Fatal(err)
	}

	if err := run(context.Background(), []string{"topk", "-embedding", embPath, "-source", "3", "-k", "5"}); err != nil {
		t.Fatal(err)
	}

	// Validation failures.
	if err := run(context.Background(), []string{"topk", "-source", "3"}); err == nil {
		t.Fatal("missing -embedding accepted")
	}
	if err := run(context.Background(), []string{"topk", "-embedding", embPath}); err == nil {
		t.Fatal("missing -source accepted")
	}
	if err := run(context.Background(), []string{"topk", "-embedding", embPath, "-source", "100000"}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if !errors.Is(
		run(context.Background(), []string{"topk", "-embedding", embPath, "-source", "100000"}),
		nrp.ErrNodeOutOfRange,
	) {
		t.Fatal("out-of-range source not reported via ErrNodeOutOfRange")
	}
}

// TestRunTopKBackends runs the topk subcommand against every backend.
func TestRunTopKBackends(t *testing.T) {
	dir := t.TempDir()
	graphPath, _ := writeTestGraph(t, dir)
	embPath := filepath.Join(dir, "emb.bin")
	if err := run(context.Background(), []string{"-input", graphPath, "-output", embPath, "-k", "16"}); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"exact", "quantized", "pruned"} {
		args := []string{"topk", "-embedding", embPath, "-source", "3", "-k", "5", "-backend", backend, "-shards", "2"}
		if err := run(context.Background(), args); err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
	}
	if err := run(context.Background(), []string{"topk", "-embedding", embPath, "-source", "3", "-backend", "bogus"}); err == nil {
		t.Fatal("bogus backend accepted")
	}
}

// TestRunIndexBuildAndQuery builds a snapshot with `nrp index` and
// queries it back with `nrp topk -index`.
func TestRunIndexBuildAndQuery(t *testing.T) {
	dir := t.TempDir()
	graphPath, g := writeTestGraph(t, dir)
	embPath := filepath.Join(dir, "emb.bin")
	indexPath := filepath.Join(dir, "index.bin")
	if err := run(context.Background(), []string{"-input", graphPath, "-output", embPath, "-k", "16"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{
		"index", "-embedding", embPath, "-output", indexPath, "-backend", "pruned", "-shards", "2",
	}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := nrp.LoadIndex(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ix.N() != g.N {
		t.Fatalf("snapshot indexes %d nodes, want %d", ix.N(), g.N)
	}
	if err := run(context.Background(), []string{"topk", "-index", indexPath, "-source", "3", "-k", "5"}); err != nil {
		t.Fatal(err)
	}

	// Validation failures.
	if err := run(context.Background(), []string{"index", "-embedding", embPath}); err == nil {
		t.Fatal("missing -output accepted")
	}
	if err := run(context.Background(), []string{"index", "-embedding", embPath, "-output", indexPath, "-backend", "bogus"}); err == nil {
		t.Fatal("bogus backend accepted")
	}
	if err := run(context.Background(), []string{"topk", "-embedding", embPath, "-index", indexPath, "-source", "3"}); err == nil {
		t.Fatal("both -embedding and -index accepted")
	}
	// -backend is baked into a snapshot: combining it with -index must be
	// rejected rather than silently ignored.
	if err := run(context.Background(), []string{"topk", "-index", indexPath, "-source", "3", "-backend", "exact"}); err == nil {
		t.Fatal("-backend with -index accepted")
	}
	// -include-self, in contrast, is a serving knob and overrides the
	// snapshot's stored choice.
	if err := run(context.Background(), []string{"topk", "-index", indexPath, "-source", "3", "-include-self"}); err != nil {
		t.Fatal(err)
	}
}

// newLiveTestServer boots an in-process live server over a small graph
// (the same handler cmd/nrpserve serves) for the update subcommand tests.
func newLiveTestServer(t *testing.T) (*httptest.Server, *nrp.LiveIndex) {
	t.Helper()
	g, err := nrp.GenSBM(nrp.SBMConfig{N: 100, M: 500, Communities: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := nrp.DefaultOptions()
	opt.Dim = 16
	dyn, err := nrp.NewDynamicEmbedding(context.Background(), g, opt, nrp.DynamicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	live, err := nrp.NewLiveIndex(dyn)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewLiveServer(live, serve.Config{Backend: "exact"}).Handler())
	t.Cleanup(ts.Close)
	return ts, live
}

func writeEdgeFile(t *testing.T, dir, name string, pairs [][2]int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	var sb strings.Builder
	// Both comment styles the graph loaders accept (KONECT files use '%').
	sb.WriteString("# test updates\n% konect-style header\n")
	for _, p := range pairs {
		fmt.Fprintf(&sb, "%d %d\n", p[0], p[1])
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunUpdate(t *testing.T) {
	ts, live := newLiveTestServer(t)
	dir := t.TempDir()
	insPath := writeEdgeFile(t, dir, "ins.txt", [][2]int{{0, 99}, {1, 98}, {2, 97}})
	remPath := writeEdgeFile(t, dir, "rem.txt", [][2]int{{0, 99}})

	before := live.Searcher()
	// Small -batch forces multiple requests.
	err := run(context.Background(), []string{"update",
		"-server", ts.URL, "-insert", insPath, "-remove", remPath, "-batch", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if live.Pending() != 0 {
		t.Fatalf("%d updates still pending after -refresh", live.Pending())
	}
	if live.Searcher() == before {
		t.Fatal("update run did not refresh the serving index")
	}
	// Net effect: inserted {1,98} and {2,97}; {0,99} was inserted then removed.
	g := live.Dynamic().Graph()
	if !g.HasEdge(1, 98) || !g.HasEdge(2, 97) || g.HasEdge(0, 99) {
		t.Fatal("graph does not reflect the update stream")
	}
}

func TestRunUpdateNoRefresh(t *testing.T) {
	ts, live := newLiveTestServer(t)
	dir := t.TempDir()
	insPath := writeEdgeFile(t, dir, "ins.txt", [][2]int{{3, 96}})
	if err := run(context.Background(), []string{"update",
		"-server", ts.URL, "-insert", insPath, "-refresh=false"}); err != nil {
		t.Fatal(err)
	}
	if live.Pending() != 1 {
		t.Fatalf("pending %d, want 1 (refresh disabled)", live.Pending())
	}
}

func TestRunUpdateValidation(t *testing.T) {
	ts, _ := newLiveTestServer(t)
	dir := t.TempDir()
	insPath := writeEdgeFile(t, dir, "ins.txt", [][2]int{{0, 42}})
	badPath := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(badPath, []byte("0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outOfRange := writeEdgeFile(t, dir, "oor.txt", [][2]int{{0, 100000}})
	for _, args := range [][]string{
		{"update"},                    // no server
		{"update", "-server", ts.URL}, // no files
		{"update", "-server", ts.URL, "-insert", filepath.Join(dir, "missing.txt")},
		{"update", "-server", ts.URL, "-insert", badPath},
		{"update", "-server", ts.URL, "-insert", insPath, "-batch", "0"},
		{"update", "-server", ts.URL, "-insert", outOfRange}, // server-side 400
	} {
		if err := run(context.Background(), args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestRunConvertRoundTrip drives text → NRPG → text through the convert
// subcommand and checks the graph (labels included) survives unchanged.
func TestRunConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g, err := nrp.GenSBM(nrp.SBMConfig{N: 90, M: 400, Communities: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	edgePath := filepath.Join(dir, "g.edges")
	f, err := os.Create(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nrp.WriteGraph(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	lf, err := os.Create(filepath.Join(dir, "g.labels"))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteLabels(lf, g.Labels); err != nil {
		t.Fatal(err)
	}
	lf.Close()

	snapPath := filepath.Join(dir, "g.nrpg")
	if err := run(context.Background(), []string{"convert",
		"-input", edgePath, "-output", snapPath, "-labels", filepath.Join(dir, "g.labels")}); err != nil {
		t.Fatal(err)
	}
	loaded, err := nrp.LoadGraph(snapPath, false) // sniffed as NRPG
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N != g.N || loaded.NumEdges != g.NumEdges || loaded.NumLabels != g.NumLabels {
		t.Fatalf("snapshot graph n=%d m=%d labels=%d, want n=%d m=%d labels=%d",
			loaded.N, loaded.NumEdges, loaded.NumLabels, g.N, g.NumEdges, g.NumLabels)
	}

	backPath := filepath.Join(dir, "back.edges")
	if err := run(context.Background(), []string{"convert", "-input", snapPath, "-output", backPath}); err != nil {
		t.Fatal(err)
	}
	back, err := nrp.LoadGraph(backPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != g.N || back.NumEdges != g.NumEdges {
		t.Fatalf("round-tripped graph n=%d m=%d, want n=%d m=%d", back.N, back.NumEdges, g.N, g.NumEdges)
	}
	if _, err := os.Stat(backPath + ".labels"); err != nil {
		t.Fatalf("labels file not emitted on snapshot → edges conversion: %v", err)
	}

	// A second text → NRPG conversion of the round-tripped pair must be
	// byte-identical to the first snapshot: the pipeline is deterministic.
	snap2 := filepath.Join(dir, "g2.nrpg")
	if err := run(context.Background(), []string{"convert",
		"-input", backPath, "-output", snap2, "-labels", backPath + ".labels"}); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("text → NRPG conversion is not deterministic across a round trip")
	}
}

// TestRunEmbedFromSnapshot embeds straight from a memory-mapped NRPG
// snapshot (the -input sniffing path).
func TestRunEmbedFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	g, err := nrp.GenSBM(nrp.SBMConfig{N: 100, M: 500, Communities: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "g.nrpg")
	if err := nrp.SaveGraph(snapPath, g); err != nil {
		t.Fatal(err)
	}
	embPath := filepath.Join(dir, "emb.bin")
	if err := run(context.Background(), []string{"-input", snapPath, "-output", embPath, "-k", "16"}); err != nil {
		t.Fatal(err)
	}
	ef, err := os.Open(embPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	emb, err := nrp.LoadEmbedding(ef)
	if err != nil {
		t.Fatal(err)
	}
	if emb.N() != g.N {
		t.Fatalf("embedding covers %d nodes, want %d", emb.N(), g.N)
	}
}

func TestRunConvertValidation(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	if err := run(ctx, []string{"convert"}); err == nil {
		t.Fatal("missing flags accepted")
	}
	g, err := nrp.GenSBM(nrp.SBMConfig{N: 40, M: 120, Communities: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "g.nrpg")
	if err := nrp.SaveGraph(snapPath, g); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{"convert", "-input", snapPath, "-output",
		filepath.Join(dir, "out"), "-labels", "x.labels"}); err == nil {
		t.Fatal("-labels with snapshot input accepted")
	}
	if err := run(ctx, []string{"convert", "-input", snapPath, "-output",
		filepath.Join(dir, "out"), "-to", "bogus"}); err == nil {
		t.Fatal("bogus -to accepted")
	}
}

// TestRunConvertPreservesAttributes rewrites a snapshot carrying an
// attributes section (which the text format cannot represent) and
// checks the section survives a binary → binary conversion.
func TestRunConvertPreservesAttributes(t *testing.T) {
	dir := t.TempDir()
	g, err := nrp.GenSBM(nrp.SBMConfig{N: 50, M: 150, Communities: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := nrp.GenAttributes(g, 4, 0.1, 10)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "a.nrpg")
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := gio.Save(f, g, attrs); err != nil {
		t.Fatal(err)
	}
	f.Close()

	outPath := filepath.Join(dir, "b.nrpg")
	if err := run(context.Background(), []string{"convert",
		"-input", snapPath, "-output", outPath, "-to", "nrpg"}); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	_, gotAttrs, err := gio.Load(rf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAttrs) != g.N || len(gotAttrs[0]) != 4 {
		t.Fatalf("attributes did not survive conversion: got %dx%d rows",
			len(gotAttrs), len(gotAttrs[0]))
	}
	for v, row := range attrs {
		for j, x := range row {
			if gotAttrs[v][j] != x {
				t.Fatalf("attr[%d][%d] = %v, want %v", v, j, gotAttrs[v][j], x)
			}
		}
	}
}

// TestRunPPR drives the ppr subcommand over a text graph, a precomputed
// walk index, and a snapshot that carries its index inline.
func TestRunPPR(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	graphPath, _ := writeTestGraph(t, dir)

	if err := run(ctx, []string{"ppr", "-input", graphPath, "-seeds", "0,3,17", "-k", "5"}); err != nil {
		t.Fatalf("ppr: %v", err)
	}
	if err := run(ctx, []string{"ppr", "-input", graphPath, "-seeds", "2", "-walks", "16", "-json"}); err != nil {
		t.Fatalf("ppr -walks: %v", err)
	}

	// A snapshot converted with -walk-index answers from the stored index.
	snapPath := filepath.Join(dir, "g.nrpg")
	if err := run(ctx, []string{"convert", "-input", graphPath, "-output", snapPath, "-walk-index", "8"}); err != nil {
		t.Fatalf("convert -walk-index: %v", err)
	}
	g, wi, closer, err := nrp.OpenGraphIndexed(snapPath, false)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if wi == nil || wi.WalksPerNode() != 8 || wi.Nodes() != g.N {
		t.Fatalf("snapshot walk index missing or wrong shape: %+v", wi)
	}
	if err := run(ctx, []string{"ppr", "-input", snapPath, "-seeds", "1,2"}); err != nil {
		t.Fatalf("ppr from indexed snapshot: %v", err)
	}
}

func TestRunPPRValidation(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	graphPath, _ := writeTestGraph(t, dir)
	for _, tc := range [][]string{
		{"ppr"},                      // no input/seeds
		{"ppr", "-input", graphPath}, // no seeds
		{"ppr", "-input", graphPath, "-seeds", "zap"},              // non-numeric seed
		{"ppr", "-input", graphPath, "-seeds", "1000"},             // out of range
		{"ppr", "-input", graphPath, "-seeds", "1", "-k", "0"},     // bad k
		{"ppr", "-input", graphPath, "-seeds", "1", "-alpha", "2"}, // bad alpha
		{"ppr", "-input", "/nope", "-seeds", "1"},                  // missing file
	} {
		if err := run(ctx, tc); err == nil {
			t.Fatalf("args %v accepted", tc)
		}
	}
	// -walk-index is an NRPG feature: text output must refuse it.
	snapPath := filepath.Join(dir, "s.nrpg")
	if err := run(ctx, []string{"convert", "-input", graphPath, "-output", snapPath}); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{"convert", "-input", snapPath, "-output",
		filepath.Join(dir, "out.txt"), "-walk-index", "4"}); err == nil {
		t.Fatal("convert -walk-index with text output accepted")
	}
}
