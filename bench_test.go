package nrp

// This file regenerates every table and figure of the paper's evaluation
// section as Go benchmarks (each named after its table or figure and
// running the internal/experiments id of the same name), plus the
// design-choice ablations (ExactB1, the factorizer, the weight targets)
// and micro-benchmarks of the
// core kernels. Figure benchmarks run the experiment harness at a reduced
// "bench" scale (documented per benchmark) and print the resulting rows —
// the series shapes, not the absolute numbers, are the reproduction target.
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkFig4 -benchmem

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/nrp-embed/nrp/internal/ann"
	"github.com/nrp-embed/nrp/internal/core"
	"github.com/nrp-embed/nrp/internal/dynamic"
	"github.com/nrp-embed/nrp/internal/eval"
	"github.com/nrp-embed/nrp/internal/experiments"
	"github.com/nrp-embed/nrp/internal/gio"
	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/par"
	"github.com/nrp-embed/nrp/internal/ppr"
	"github.com/nrp-embed/nrp/internal/svd"
)

// TestMain flushes the serving-backend benchmark records to
// BENCH_topk.json, the dynamic-refresh records to BENCH_dynamic.json and
// the parallel-build records to BENCH_build.json after the run (see
// writeTopKBenchRecords, writeDynamicBenchRecord, writeBuildBenchRecord),
// so the CI benchmark smoke steps leave machine-readable perf traces
// behind.
func TestMain(m *testing.M) {
	code := m.Run()
	if err := writeTopKBenchRecords(); err != nil {
		fmt.Fprintln(os.Stderr, "writing BENCH_topk.json:", err)
		if code == 0 {
			code = 1
		}
	}
	if err := writeDynamicBenchRecord(); err != nil {
		fmt.Fprintln(os.Stderr, "writing BENCH_dynamic.json:", err)
		if code == 0 {
			code = 1
		}
	}
	if err := writeBuildBenchRecord(); err != nil {
		fmt.Fprintln(os.Stderr, "writing BENCH_build.json:", err)
		if code == 0 {
			code = 1
		}
	}
	if err := writeIngestBenchRecord(); err != nil {
		fmt.Fprintln(os.Stderr, "writing BENCH_ingest.json:", err)
		if code == 0 {
			code = 1
		}
	}
	if err := writePPRBenchRecord(); err != nil {
		fmt.Fprintln(os.Stderr, "writing BENCH_ppr.json:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// runExperiment executes a registered experiment once per benchmark
// iteration, printing its tables on the first iteration only.
func runExperiment(b *testing.B, name string, cfg experiments.Config) {
	b.Helper()
	r, err := experiments.Find(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables, err := r.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println()
			for _, t := range tables {
				if err := t.Render(os.Stdout); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchScale shrinks the harness datasets so each figure benchmark stays in
// the tens of seconds on one core; cmd/nrpexp reproduces the full-size
// quick and -full profiles.
const benchScale = 0.12

func BenchmarkTable1PPRExample(b *testing.B) {
	runExperiment(b, "table1", experiments.Config{})
}

func BenchmarkFig2ApproxPPRExample(b *testing.B) {
	runExperiment(b, "example1", experiments.Config{Seed: 7})
}

func BenchmarkTable3DatasetStats(b *testing.B) {
	runExperiment(b, "table3", experiments.Config{Scale: 0.1, Seed: 1})
}

func BenchmarkTable4EvolvingStats(b *testing.B) {
	runExperiment(b, "table4", experiments.Config{Scale: 0.2, Seed: 1})
}

func BenchmarkFig4LinkPrediction(b *testing.B) {
	runExperiment(b, "fig4", experiments.Config{
		Scale: benchScale, Seed: 1,
		DatasetNames: []string{"wiki-sim", "blogcatalog-sim"},
	})
}

func BenchmarkFig5GraphReconstruction(b *testing.B) {
	runExperiment(b, "fig5", experiments.Config{
		Scale: benchScale, Dim: 64, Seed: 1,
		DatasetNames: []string{"wiki-sim"},
	})
}

func BenchmarkFig6NodeClassification(b *testing.B) {
	runExperiment(b, "fig6", experiments.Config{
		Scale: benchScale, Dim: 64, Seed: 1,
		DatasetNames: []string{"wiki-sim", "blogcatalog-sim"},
	})
}

func BenchmarkFig7RunningTime(b *testing.B) {
	runExperiment(b, "fig7", experiments.Config{
		Scale: benchScale, Seed: 1,
		DatasetNames: []string{"wiki-sim", "blogcatalog-sim"},
	})
}

func BenchmarkFig8ParameterAUC(b *testing.B) {
	runExperiment(b, "fig8", experiments.Config{
		Scale: benchScale, Dim: 64, Seed: 1,
	})
}

func BenchmarkFig9EvolvingLinkPrediction(b *testing.B) {
	runExperiment(b, "fig9", experiments.Config{
		Scale: 0.2, Dim: 64, Seed: 1,
	})
}

func BenchmarkFig10Scalability(b *testing.B) {
	runExperiment(b, "fig10", experiments.Config{Seed: 1})
}

func BenchmarkFig11ParameterRunningTime(b *testing.B) {
	runExperiment(b, "fig11", experiments.Config{
		Scale: benchScale, Dim: 64, Seed: 1,
	})
}

// --- Ablations of the stated deviations from the paper -----------------

// ablationGraph is the shared workload for the design-choice ablations:
// wiki-sim at bench scale with a 30% link-prediction split.
func ablationSplit(b *testing.B) (*graph.Graph, *eval.LinkPredSplit) {
	b.Helper()
	ds, err := experiments.FindDataset("wiki-sim")
	if err != nil {
		b.Fatal(err)
	}
	g, err := ds.Gen(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	split, err := eval.NewLinkPredSplit(g, 0.3, 42)
	if err != nil {
		b.Fatal(err)
	}
	return g, split
}

func ablationAUC(b *testing.B, split *eval.LinkPredSplit, opt core.Options) (float64, time.Duration) {
	b.Helper()
	start := time.Now()
	emb, _, err := core.NRPCtx(context.Background(), split.Train, opt)
	if err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	auc, err := eval.LinkPredictionAUC(emb, split)
	if err != nil {
		b.Fatal(err)
	}
	return auc, elapsed
}

// BenchmarkAblationExactB1 compares the paper's AM-GM approximation of the
// b₁ coordinate-descent term against its exact O(k′²) evaluation.
func BenchmarkAblationExactB1(b *testing.B) {
	_, split := ablationSplit(b)
	for i := 0; i < b.N; i++ {
		opt := core.DefaultOptions()
		opt.Dim = 64
		aucApprox, tApprox := ablationAUC(b, split, opt)
		opt.ExactB1 = true
		aucExact, tExact := ablationAUC(b, split, opt)
		if i == 0 {
			fmt.Printf("\nablation exact-b1 (wiki-sim ×%.2f): approx AUC=%.4f (%.2fs)  exact AUC=%.4f (%.2fs)\n",
				benchScale, aucApprox, tApprox.Seconds(), aucExact, tExact.Seconds())
		}
	}
}

// BenchmarkAblationFactorizer compares BKSVD against plain randomized
// subspace iteration as Algorithm 1's factorizer.
func BenchmarkAblationFactorizer(b *testing.B) {
	_, split := ablationSplit(b)
	for i := 0; i < b.N; i++ {
		opt := core.DefaultOptions()
		opt.Dim = 64
		aucBK, tBK := ablationAUC(b, split, opt)
		opt.SubspaceIteration = true
		aucSI, tSI := ablationAUC(b, split, opt)
		if i == 0 {
			fmt.Printf("\nablation factorizer (wiki-sim ×%.2f): BKSVD AUC=%.4f (%.2fs)  subspace AUC=%.4f (%.2fs)\n",
				benchScale, aucBK, tBK.Seconds(), aucSI, tSI.Seconds())
		}
	}
}

// BenchmarkAblationWeightTargets compares degree-targeted reweighting
// (Eq. 5) against uniform targets, isolating the value of degree
// information in the objective.
func BenchmarkAblationWeightTargets(b *testing.B) {
	g, split := ablationSplit(b)
	opt := core.DefaultOptions()
	opt.Dim = 64
	for i := 0; i < b.N; i++ {
		base, _, err := core.ApproxPPRCtx(context.Background(), split.Train, opt)
		if err != nil {
			b.Fatal(err)
		}
		apply := func(fw, bw []float64) float64 {
			emb := &core.Embedding{X: base.X.Clone(), Y: base.Y.Clone()}
			for v := 0; v < split.Train.N; v++ {
				emb.X.ScaleRow(v, fw[v])
				emb.Y.ScaleRow(v, bw[v])
			}
			auc, err := eval.LinkPredictionAUC(emb, split)
			if err != nil {
				b.Fatal(err)
			}
			return auc
		}
		fwDeg, bwDeg, _, err := core.LearnWeightsCtx(context.Background(), split.Train, base, opt)
		if err != nil {
			b.Fatal(err)
		}
		uniformIn := make([]float64, g.N)
		uniformOut := make([]float64, g.N)
		avg := float64(2*split.Train.NumEdges) / float64(g.N)
		for v := range uniformIn {
			uniformIn[v] = avg
			uniformOut[v] = avg
		}
		fwUni, bwUni, err := core.LearnWeightsWithTargets(base, uniformIn, uniformOut, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nablation weight targets (wiki-sim ×%.2f): degree AUC=%.4f  uniform AUC=%.4f  none AUC=%.4f\n",
				benchScale, apply(fwDeg, bwDeg), apply(fwUni, bwUni), mustAUC(b, base, split))
		}
	}
}

func mustAUC(b *testing.B, s eval.Scorer, split *eval.LinkPredSplit) float64 {
	b.Helper()
	auc, err := eval.LinkPredictionAUC(s, split)
	if err != nil {
		b.Fatal(err)
	}
	return auc
}

// --- Serving backend benchmarks (BuildIndex) -----------------------------

// The TopK benchmarks compare the three Searcher backends on one serving
// fixture: n=100k nodes, k'=64 dimensions, with a heavy-tailed backward
// norm profile (‖Y_v‖ ∝ rank^-0.5) mirroring what NRP's degree-targeted
// reweighting produces on power-law graphs — the regime the norm-pruned
// backend is designed for. Run with:
//
//	go test -bench=TopK -benchtime=1x
//
// Each run appends its measurements to BENCH_topk.json (via TestMain).
const (
	servingN   = 100_000
	servingDim = 64
	servingK   = 10
)

var (
	servingOnce sync.Once
	servingFix  *core.Embedding
)

func servingEmbedding() *core.Embedding {
	servingOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		emb := &core.Embedding{
			X: matrix.GaussianDense(servingN, servingDim, rng),
			Y: matrix.GaussianDense(servingN, servingDim, rng),
		}
		for v, rank := range rng.Perm(servingN) {
			emb.Y.ScaleRow(v, math.Pow(1+float64(rank), -0.5))
		}
		servingFix = emb
	})
	return servingFix
}

type topkBenchRecord struct {
	Name    string  `json:"name"`
	Backend string  `json:"backend"`
	N       int     `json:"n"`
	Dim     int     `json:"dim"`
	K       int     `json:"k"`
	NsPerOp float64 `json:"ns_per_op"`
	QPS     float64 `json:"qps"`
}

var (
	topkBenchMu      sync.Mutex
	topkBenchRecords = map[string]topkBenchRecord{}
)

// recordTopKBench keeps the latest (largest-b.N) measurement per
// benchmark name; TestMain writes them out at exit.
func recordTopKBench(name string, backend Backend, nsPerOp float64) {
	topkBenchMu.Lock()
	defer topkBenchMu.Unlock()
	topkBenchRecords[name] = topkBenchRecord{
		Name: name, Backend: backend.String(),
		N: servingN, Dim: servingDim, K: servingK,
		NsPerOp: nsPerOp, QPS: 1e9 / nsPerOp,
	}
}

// hnswBenchStats is the "hnsw" object of BENCH_topk.json: the accuracy
// and speedup contract of the ANN backend, gated by internal/benchgate
// (recall with 0.01 tolerance, speedup as an ordinary relative metric).
// SpeedupVsPruned is the batch-mode QPS ratio: both batch benchmarks
// parallelize across queries identically, so the ratio is thread-count
// invariant — unlike single-query mode, where the pruned scan fans out
// across shards but a graph walk cannot.
type hnswBenchStats struct {
	RecallAt10      float64 `json:"recall_at_10"`
	SpeedupVsPruned float64 `json:"speedup_vs_pruned"`
	M               int     `json:"m"`
	EfConstruction  int     `json:"ef_construction"`
	EfSearch        int     `json:"ef_search"`
	SeedRows        int     `json:"seed_rows"`
	Rerank          int     `json:"rerank"`
	Quantized       bool    `json:"quantized"`
	BuildMs         float64 `json:"build_ms"`
}

var hnswBenchRecorded *hnswBenchStats // guarded by topkBenchMu

func writeTopKBenchRecords() error {
	topkBenchMu.Lock()
	defer topkBenchMu.Unlock()
	if len(topkBenchRecords) == 0 {
		return nil
	}
	records := make([]topkBenchRecord, 0, len(topkBenchRecords))
	for _, name := range []string{"TopKExact", "TopKQuantized", "TopKPruned", "TopKHNSW",
		"TopKBatchExact", "TopKBatchQuantized", "TopKBatchPruned", "TopKBatchHNSW"} {
		if r, ok := topkBenchRecords[name]; ok {
			records = append(records, r)
		}
	}
	out := map[string]any{"benchmarks": records}
	if hnswBenchRecorded != nil {
		st := *hnswBenchRecorded
		pruned, okP := topkBenchRecords["TopKBatchPruned"]
		hnsw, okH := topkBenchRecords["TopKBatchHNSW"]
		if okP && okH && pruned.NsPerOp > 0 {
			st.SpeedupVsPruned = pruned.NsPerOp / hnsw.NsPerOp
		}
		out["hnsw"] = st
	}
	f, err := os.Create("BENCH_topk.json")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchmarkTopK measures single-query latency: one query at a time, each
// fanned out across all shards.
func benchmarkTopK(b *testing.B, name string, backend Backend) {
	s, err := nrpBuildIndex(backend)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkTopKWith(b, name, backend, s)
}

func benchmarkTopKWith(b *testing.B, name string, backend Backend, s Searcher) {
	rng := rand.New(rand.NewSource(7))
	us := make([]int, 256)
	for i := range us {
		us[i] = rng.Intn(servingN)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TopK(ctx, us[i%len(us)], servingK); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	recordTopKBench(name, backend, float64(b.Elapsed().Nanoseconds())/float64(b.N))
}

// benchmarkTopKBatch measures throughput mode: TopKMany over 64 sources,
// parallelized across queries. The recorded ns/op is per query.
func benchmarkTopKBatch(b *testing.B, name string, backend Backend) {
	s, err := nrpBuildIndex(backend)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkTopKBatchWith(b, name, backend, s)
}

func benchmarkTopKBatchWith(b *testing.B, name string, backend Backend, s Searcher) {
	rng := rand.New(rand.NewSource(7))
	const batch = 64
	us := make([]int, batch)
	for i := range us {
		us[i] = rng.Intn(servingN)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TopKMany(ctx, us, servingK); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Normalize to per-query so the batch records compare directly with
	// the single-query ones.
	recordTopKBench(name, backend, float64(b.Elapsed().Nanoseconds())/float64(b.N*batch))
}

// nrpBuildIndex builds the benchmark Searcher (bench_test lives in
// package nrp, so BuildIndex is in scope; the wrapper keeps the fixture
// choice in one place).
func nrpBuildIndex(backend Backend) (Searcher, error) {
	return BuildIndex(servingEmbedding(), WithBackend(backend))
}

func BenchmarkTopKExact(b *testing.B)     { benchmarkTopK(b, "TopKExact", BackendExact) }
func BenchmarkTopKQuantized(b *testing.B) { benchmarkTopK(b, "TopKQuantized", BackendQuantized) }
func BenchmarkTopKPruned(b *testing.B)    { benchmarkTopK(b, "TopKPruned", BackendPruned) }

func BenchmarkTopKBatchExact(b *testing.B) { benchmarkTopKBatch(b, "TopKBatchExact", BackendExact) }
func BenchmarkTopKBatchQuantized(b *testing.B) {
	benchmarkTopKBatch(b, "TopKBatchQuantized", BackendQuantized)
}
func BenchmarkTopKBatchPruned(b *testing.B) { benchmarkTopKBatch(b, "TopKBatchPruned", BackendPruned) }

// --- HNSW serving benchmarks ---------------------------------------------

// The HNSW benchmark configuration: quantized coarse stage with a narrow
// beam over a sparse (M=8) graph, the layer-0 beam pre-seeded with the
// 128 highest-norm rows. Tuned on the serving fixture so recall@10 stays
// ≥ 0.95 (hard enforced below — the benchmark fails, not just records,
// when accuracy drops) while single-query work is sublinear in n: the
// norm seeds cover the hub mass every top-k answer shares, so a very
// narrow beam only has to recover the query-specific tail.
const (
	hnswBenchM        = 8
	hnswBenchEfSearch = 12
	hnswBenchSeedRows = 128
	hnswBenchRerank   = 2
)

var (
	hnswBenchOnce    sync.Once
	hnswBenchIdx     Searcher
	hnswBenchErr     error
	hnswBenchBuildMs float64
)

// hnswBenchIndex builds (once) the HNSW index both HNSW benchmarks share
// — construction over 100k rows is far too expensive to repeat per
// benchmark invocation.
func hnswBenchIndex() (Searcher, error) {
	hnswBenchOnce.Do(func() {
		start := time.Now()
		hnswBenchIdx, hnswBenchErr = BuildIndex(servingEmbedding(),
			WithBackend(BackendHNSW), WithHNSWQuantized(true),
			WithHNSWM(hnswBenchM), WithEfSearch(hnswBenchEfSearch),
			WithHNSWSeedRows(hnswBenchSeedRows), WithRerank(hnswBenchRerank))
		hnswBenchBuildMs = float64(time.Since(start).Nanoseconds()) / 1e6
	})
	return hnswBenchIdx, hnswBenchErr
}

// hnswRecallGate measures recall@10 against the exact scan and fails the
// benchmark below 0.95 — the accuracy contract travels with the perf
// numbers into BENCH_topk.json, where benchgate holds the line in CI.
func hnswRecallGate(b *testing.B, s Searcher) {
	ctx := context.Background()
	exact := mustBuildIndex(b, servingEmbedding())
	rng := rand.New(rand.NewSource(99))
	var hits, total float64
	for q := 0; q < 100; q++ {
		u := rng.Intn(servingN)
		want, err := exact.TopK(ctx, u, servingK)
		if err != nil {
			b.Fatal(err)
		}
		got, err := s.TopK(ctx, u, servingK)
		if err != nil {
			b.Fatal(err)
		}
		in := make(map[int]bool, len(want))
		for _, nb := range want {
			in[nb.Node] = true
		}
		for _, nb := range got {
			if in[nb.Node] {
				hits++
			}
		}
		total += float64(len(want))
	}
	recall := hits / total
	if recall < 0.95 {
		b.Fatalf("hnsw recall@%d = %.4f < 0.95 (ef=%d rerank=%d)",
			servingK, recall, hnswBenchEfSearch, hnswBenchRerank)
	}
	b.Logf("hnsw recall@%d = %.4f", servingK, recall)
	topkBenchMu.Lock()
	hnswBenchRecorded = &hnswBenchStats{
		RecallAt10:     recall,
		M:              hnswBenchM,
		EfConstruction: ann.DefaultEfConstruction,
		EfSearch:       hnswBenchEfSearch,
		SeedRows:       hnswBenchSeedRows,
		Rerank:         hnswBenchRerank,
		Quantized:      true,
		BuildMs:        hnswBenchBuildMs,
	}
	topkBenchMu.Unlock()
}

func BenchmarkTopKHNSW(b *testing.B) {
	s, err := hnswBenchIndex()
	if err != nil {
		b.Fatal(err)
	}
	hnswRecallGate(b, s)
	benchmarkTopKWith(b, "TopKHNSW", BackendHNSW, s)
}

func BenchmarkTopKBatchHNSW(b *testing.B) {
	s, err := hnswBenchIndex()
	if err != nil {
		b.Fatal(err)
	}
	benchmarkTopKBatchWith(b, "TopKBatchHNSW", BackendHNSW, s)
}

// --- Dynamic-graph refresh benchmark -------------------------------------

// BenchmarkDynamicRefresh is the evolving-graph serving benchmark: a
// 100k-node SBM grows by a batch of triadic-closure edges, and the
// incrementally refreshed embedding is raced against a from-scratch
// re-embed of the updated graph. Both are scored on link prediction over
// a held-out set of further future edges; the reproduction target is an
// incremental refresh ≥5× faster than the full re-embed at AUC within
// 0.01. One iteration measures both paths; the record lands in
// BENCH_dynamic.json via TestMain. Run with:
//
//	go test -run '^$' -bench BenchmarkDynamicRefresh -benchtime 1x
const (
	dynBenchN       = 100_000
	dynBenchM       = 500_000
	dynBenchDim     = 32
	dynBenchUpdates = 1000 // applied batch; an equal batch is held out
)

type dynamicBenchRecord struct {
	N              int     `json:"n"`
	M              int     `json:"m"`
	Dim            int     `json:"dim"`
	Updates        int     `json:"updates"`
	TouchedNodes   int     `json:"touched_nodes"`
	PushMass       float64 `json:"push_mass"`
	ResidualMass   float64 `json:"residual_mass"`
	IncrementalMs  float64 `json:"incremental_ms"`
	FullMs         float64 `json:"full_ms"`
	Speedup        float64 `json:"speedup"`
	AUCStale       float64 `json:"auc_stale"`
	AUCIncremental float64 `json:"auc_incremental"`
	AUCFull        float64 `json:"auc_full"`
}

var (
	dynamicBenchMu  sync.Mutex
	dynamicBenchRec *dynamicBenchRecord
)

func writeDynamicBenchRecord() error {
	dynamicBenchMu.Lock()
	defer dynamicBenchMu.Unlock()
	if dynamicBenchRec == nil {
		return nil
	}
	f, err := os.Create("BENCH_dynamic.json")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(dynamicBenchRec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func BenchmarkDynamicRefresh(b *testing.B) {
	ctx := context.Background()
	base, future, err := graph.GenEvolving(graph.EvolvingConfig{
		Base: graph.SBMConfig{N: dynBenchN, M: dynBenchM, Communities: 50, Seed: 4},
		MNew: 2 * dynBenchUpdates,
		Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	arriving, heldOut := future[:dynBenchUpdates], future[dynBenchUpdates:]
	opt := core.DefaultOptions()
	opt.Dim = dynBenchDim

	auc := func(emb *core.Embedding, g *graph.Graph) float64 {
		rng := rand.New(rand.NewSource(77))
		neg, err := eval.SampleNonEdges(g, len(heldOut), rng)
		if err != nil {
			b.Fatal(err)
		}
		pos := make([]float64, len(heldOut))
		for i, e := range heldOut {
			pos[i] = emb.Score(int(e.U), int(e.V))
		}
		negS := make([]float64, len(neg))
		for i, e := range neg {
			negS[i] = emb.Score(int(e.U), int(e.V))
		}
		v, err := eval.AUC(pos, negS)
		if err != nil {
			b.Fatal(err)
		}
		return v
	}

	for i := 0; i < b.N; i++ {
		dyn, err := dynamic.New(ctx, base, opt, dynamic.Config{Policy: dynamic.PolicyIncremental})
		if err != nil {
			b.Fatal(err)
		}
		aucStale := auc(dyn.Embedding(), dyn.Graph())

		ups := make([]dynamic.EdgeUpdate, len(arriving))
		for j, e := range arriving {
			ups[j] = dynamic.EdgeUpdate{U: e.U, V: e.V, Op: dynamic.OpInsert}
		}
		incStart := time.Now()
		if _, err := dyn.ApplyUpdates(ctx, ups); err != nil {
			b.Fatal(err)
		}
		st, err := dyn.Refresh(ctx)
		if err != nil {
			b.Fatal(err)
		}
		incElapsed := time.Since(incStart)
		if st.Mode != dynamic.ModeIncremental {
			b.Fatalf("refresh mode %q, want incremental", st.Mode)
		}
		aucInc := auc(dyn.Embedding(), dyn.Graph())

		fullStart := time.Now()
		full, _, err := core.NRPCtx(context.Background(), dyn.Graph(), opt)
		if err != nil {
			b.Fatal(err)
		}
		fullElapsed := time.Since(fullStart)
		aucFull := auc(full, dyn.Graph())

		if i == 0 {
			rec := &dynamicBenchRecord{
				N: dynBenchN, M: dynBenchM, Dim: dynBenchDim, Updates: len(arriving),
				TouchedNodes: st.TouchedNodes, PushMass: st.PushMass, ResidualMass: st.ResidualMass,
				IncrementalMs: float64(incElapsed.Microseconds()) / 1000,
				FullMs:        float64(fullElapsed.Microseconds()) / 1000,
				Speedup:       fullElapsed.Seconds() / incElapsed.Seconds(),
				AUCStale:      aucStale, AUCIncremental: aucInc, AUCFull: aucFull,
			}
			dynamicBenchMu.Lock()
			dynamicBenchRec = rec
			dynamicBenchMu.Unlock()
			fmt.Printf("\ndynamic refresh (n=%d, m=%d, %d updates): incremental %.0fms (touched %d)  full %.0fms  speedup %.1fx  AUC inc=%.4f full=%.4f stale=%.4f\n",
				dynBenchN, dynBenchM, len(arriving), rec.IncrementalMs, st.TouchedNodes,
				rec.FullMs, rec.Speedup, aucInc, aucFull, aucStale)
		}
	}
}

// --- Parallel end-to-end build benchmark ---------------------------------

// BenchmarkEmbedBuild races the full NRP build (BKSVD + PPR folding +
// reweighting) at 1 thread against all cores on a 100k-node SBM, and
// scores both embeddings on held-out link prediction to confirm the
// parallel engine changes wall time, not quality. The reproduction target
// on an 8-core host is a ≥4× build speedup with AUC within ±0.5%. One
// iteration measures both builds; the record lands in BENCH_build.json
// via TestMain. Run with:
//
//	go test -run '^$' -bench BenchmarkEmbedBuild -benchtime 1x
const (
	buildBenchN   = 100_000
	buildBenchM   = 500_000
	buildBenchDim = 32
)

type buildBenchRecord struct {
	N           int     `json:"n"`
	M           int     `json:"m"`
	Dim         int     `json:"dim"`
	Threads     int     `json:"threads"`
	SerialMs    float64 `json:"serial_ms"`
	ParallelMs  float64 `json:"parallel_ms"`
	Speedup     float64 `json:"speedup"`
	AUCSerial   float64 `json:"auc_serial"`
	AUCThreads  float64 `json:"auc_parallel"`
	ForaMs      float64 `json:"fora_ms"`
	ForaSpeedup float64 `json:"fora_speedup"`
	AUCFora     float64 `json:"auc_fora"`
}

var (
	buildBenchMu  sync.Mutex
	buildBenchRec *buildBenchRecord
)

func writeBuildBenchRecord() error {
	buildBenchMu.Lock()
	defer buildBenchMu.Unlock()
	if buildBenchRec == nil {
		return nil
	}
	f, err := os.Create("BENCH_build.json")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildBenchRec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func BenchmarkEmbedBuild(b *testing.B) {
	ctx := context.Background()
	g, err := graph.GenSBM(graph.SBMConfig{N: buildBenchN, M: buildBenchM, Communities: 50, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	split, err := eval.NewLinkPredSplit(g, 0.3, 42)
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Dim = buildBenchDim
	threads := runtime.GOMAXPROCS(0)

	for i := 0; i < b.N; i++ {
		serialStart := time.Now()
		embSerial, _, err := core.NRPCtx(ctx, split.Train, opt, core.WithThreads(1))
		if err != nil {
			b.Fatal(err)
		}
		serialElapsed := time.Since(serialStart)

		parStart := time.Now()
		embPar, stats, err := core.NRPCtx(ctx, split.Train, opt, core.WithThreads(0))
		if err != nil {
			b.Fatal(err)
		}
		parElapsed := time.Since(parStart)

		foraStart := time.Now()
		embFora, _, err := core.NRPCtx(ctx, split.Train, opt,
			core.WithThreads(0), core.WithEstimator(core.EstimatorFORA))
		if err != nil {
			b.Fatal(err)
		}
		foraElapsed := time.Since(foraStart)

		aucSerial, err := eval.LinkPredictionAUC(embSerial, split)
		if err != nil {
			b.Fatal(err)
		}
		aucPar, err := eval.LinkPredictionAUC(embPar, split)
		if err != nil {
			b.Fatal(err)
		}
		aucFora, err := eval.LinkPredictionAUC(embFora, split)
		if err != nil {
			b.Fatal(err)
		}

		if i == 0 {
			rec := &buildBenchRecord{
				N: buildBenchN, M: buildBenchM, Dim: buildBenchDim, Threads: stats.Threads,
				SerialMs:   float64(serialElapsed.Microseconds()) / 1000,
				ParallelMs: float64(parElapsed.Microseconds()) / 1000,
				Speedup:    serialElapsed.Seconds() / parElapsed.Seconds(),
				AUCSerial:  aucSerial, AUCThreads: aucPar,
				ForaMs:      float64(foraElapsed.Microseconds()) / 1000,
				ForaSpeedup: parElapsed.Seconds() / foraElapsed.Seconds(),
				AUCFora:     aucFora,
			}
			buildBenchMu.Lock()
			buildBenchRec = rec
			buildBenchMu.Unlock()
			fmt.Printf("\nembed build (n=%d, m=%d, k=%d): 1 thread %.0fms  %d threads %.0fms  speedup %.1fx  fora %.0fms (%.1fx vs parallel push)  AUC serial=%.4f parallel=%.4f fora=%.4f\n",
				buildBenchN, buildBenchM, buildBenchDim, rec.SerialMs, threads, rec.ParallelMs,
				rec.Speedup, rec.ForaMs, rec.ForaSpeedup, aucSerial, aucPar, aucFora)
		}
	}
}

// --- Ingestion benchmark -------------------------------------------------

// BenchmarkIngest races the four ways a graph gets into memory on an
// ~800k-edge SBM: the serial text parser, the chunked parallel parser
// (bit-identical output, asserted), the fully-verified NRPG heap load,
// and the zero-copy NRPG mmap load. The reproduction target is the
// paper's "massive graphs" posture: parallel parse well ahead of serial,
// and the mmap snapshot boot ≥10× faster than any text parse. One
// iteration measures all four; the record lands in BENCH_ingest.json via
// TestMain and feeds the bench-gate CI job. Run with:
//
//	go test -run '^$' -bench BenchmarkIngest -benchtime 1x
const (
	ingestBenchN = 200_000
	ingestBenchM = 800_000
)

type ingestBenchRecord struct {
	N               int     `json:"n"`
	M               int     `json:"m"`
	Threads         int     `json:"threads"`
	TextBytes       int64   `json:"text_bytes"`
	NRPGBytes       int64   `json:"nrpg_bytes"`
	SerialParseMs   float64 `json:"serial_parse_ms"`
	ParallelParseMs float64 `json:"parallel_parse_ms"`
	HeapLoadMs      float64 `json:"heap_load_ms"`
	MmapLoadMs      float64 `json:"mmap_load_ms"`
	ParallelSpeedup float64 `json:"parallel_speedup"`
	MmapSpeedup     float64 `json:"mmap_vs_text_speedup"`
}

var (
	ingestBenchMu  sync.Mutex
	ingestBenchRec *ingestBenchRecord
)

func writeIngestBenchRecord() error {
	ingestBenchMu.Lock()
	defer ingestBenchMu.Unlock()
	if ingestBenchRec == nil {
		return nil
	}
	f, err := os.Create("BENCH_ingest.json")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ingestBenchRec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func BenchmarkIngest(b *testing.B) {
	g, err := graph.GenSBM(graph.SBMConfig{N: ingestBenchN, M: ingestBenchM, Communities: 50, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, g); err != nil {
		b.Fatal(err)
	}
	snapPath := filepath.Join(b.TempDir(), "ingest.nrpg")
	sf, err := os.Create(snapPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := gio.Save(sf, g, nil); err != nil {
		b.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(snapPath)
	if err != nil {
		b.Fatal(err)
	}
	threads := runtime.GOMAXPROCS(0)

	for i := 0; i < b.N; i++ {
		serialStart := time.Now()
		serial, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()), false, 0)
		if err != nil {
			b.Fatal(err)
		}
		serialElapsed := time.Since(serialStart)

		parStart := time.Now()
		parallel, err := gio.ParseEdgeList(text.Bytes(), false, 0, par.New(0))
		if err != nil {
			b.Fatal(err)
		}
		parElapsed := time.Since(parStart)
		if parallel.NumEdges != serial.NumEdges || parallel.Adj.NNZ() != serial.Adj.NNZ() {
			b.Fatalf("parallel parse diverged: m=%d nnz=%d, want m=%d nnz=%d",
				parallel.NumEdges, parallel.Adj.NNZ(), serial.NumEdges, serial.Adj.NNZ())
		}
		for p, c := range serial.Adj.ColIdx {
			if parallel.Adj.ColIdx[p] != c {
				b.Fatalf("parallel parse diverged at entry %d", p)
			}
		}

		heapStart := time.Now()
		hf, err := os.Open(snapPath)
		if err != nil {
			b.Fatal(err)
		}
		heap, _, err := gio.Load(hf)
		hf.Close()
		if err != nil {
			b.Fatal(err)
		}
		heapElapsed := time.Since(heapStart)

		mmapStart := time.Now()
		mapped, _, closer, err := gio.LoadMmap(snapPath)
		if err != nil {
			b.Fatal(err)
		}
		mmapElapsed := time.Since(mmapStart)
		if mapped.NumEdges != g.NumEdges || heap.NumEdges != g.NumEdges {
			b.Fatalf("snapshot loads diverged: mmap m=%d heap m=%d, want %d",
				mapped.NumEdges, heap.NumEdges, g.NumEdges)
		}
		closer.Close()

		if i == 0 {
			rec := &ingestBenchRecord{
				N: g.N, M: g.NumEdges, Threads: threads,
				TextBytes: int64(text.Len()), NRPGBytes: st.Size(),
				SerialParseMs:   float64(serialElapsed.Microseconds()) / 1000,
				ParallelParseMs: float64(parElapsed.Microseconds()) / 1000,
				HeapLoadMs:      float64(heapElapsed.Microseconds()) / 1000,
				MmapLoadMs:      float64(mmapElapsed.Microseconds()) / 1000,
				ParallelSpeedup: serialElapsed.Seconds() / parElapsed.Seconds(),
				MmapSpeedup:     serialElapsed.Seconds() / mmapElapsed.Seconds(),
			}
			ingestBenchMu.Lock()
			ingestBenchRec = rec
			ingestBenchMu.Unlock()
			fmt.Printf("\ningest (n=%d, m=%d, %d threads): serial parse %.0fms  parallel parse %.0fms (%.1fx)  heap load %.0fms  mmap load %.2fms (%.0fx vs text)\n",
				g.N, g.NumEdges, threads, rec.SerialParseMs, rec.ParallelParseMs, rec.ParallelSpeedup,
				rec.HeapLoadMs, rec.MmapLoadMs, rec.MmapSpeedup)
		}
	}
}

// --- Online PPR query benchmark ------------------------------------------

// BenchmarkPPRQuery is the online serving benchmark of the FORA
// subsystem: 4-seed PPR queries on a 100k-node SBM at (ε=0.5, δ=1e-4),
// answered three ways — plain FORA (forward push + live walks), FORA+
// (push + walk-index lookups) and fully converged power iteration, the
// exact baseline. Every FORA estimate is checked against the
// power-iteration ground truth and the benchmark fails hard if the max
// relative error over guaranteed top-k nodes (π ≥ δ) exceeds ε. The
// reproduction target is FORA ≥10× faster than power iteration at ≤ ε
// error; the record lands in BENCH_ppr.json via TestMain and feeds the
// bench-gate CI job. Run with:
//
//	go test -run '^$' -bench BenchmarkPPRQuery -benchtime 1x
const (
	pprBenchN       = 100_000
	pprBenchM       = 500_000
	pprBenchSeeds   = 4
	pprBenchK       = 10
	pprBenchAlpha   = 0.15
	pprBenchEps     = 0.5
	pprBenchDelta   = 1e-3 // guarantee threshold; top-k scores of 4-seed queries sit well above it
	pprBenchPFail   = 0.01 // per-query failure probability, the usual serving setting
	pprBenchQueries = 8
	pprBenchWalks   = 16 // FORA+ index walks per node
)

type pprBenchRecord struct {
	N              int     `json:"n"`
	M              int     `json:"m"`
	Queries        int     `json:"queries"`
	SeedsPerQuery  int     `json:"seeds_per_query"`
	K              int     `json:"k"`
	Alpha          float64 `json:"alpha"`
	Epsilon        float64 `json:"epsilon"`
	Delta          float64 `json:"delta"`
	PFail          float64 `json:"p_fail"`
	PowerIters     int     `json:"power_iters"`
	WalksPerNode   int     `json:"walks_per_node"`
	ForaMs         float64 `json:"fora_ms"`      // per query
	ForaPlusMs     float64 `json:"fora_plus_ms"` // per query, walk index attached
	PowerMs        float64 `json:"power_ms"`     // per query
	SpeedupVsPower float64 `json:"speedup_vs_power"`
	IndexSpeedup   float64 `json:"index_speedup"`
	MaxRelErr      float64 `json:"max_rel_err"`
	CheckedScores  int     `json:"checked_scores"`
}

var (
	pprBenchMu  sync.Mutex
	pprBenchRec *pprBenchRecord
)

func writePPRBenchRecord() error {
	pprBenchMu.Lock()
	defer pprBenchMu.Unlock()
	if pprBenchRec == nil {
		return nil
	}
	f, err := os.Create("BENCH_ppr.json")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(pprBenchRec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func BenchmarkPPRQuery(b *testing.B) {
	ctx := context.Background()
	g, err := GenSBM(SBMConfig{N: pprBenchN, M: pprBenchM, Communities: 50, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	opts := []PPROption{WithAlpha(pprBenchAlpha), WithEpsilon(pprBenchEps),
		WithPPRDelta(pprBenchDelta), WithPPRFailureProb(pprBenchPFail)}
	eng, err := NewPPREngine(g, opts...)
	if err != nil {
		b.Fatal(err)
	}
	wi, err := BuildWalkIndex(ctx, g, pprBenchWalks, WithAlpha(pprBenchAlpha))
	if err != nil {
		b.Fatal(err)
	}
	fast, err := NewPPREngine(g, append(opts, WithWalkIndex(wi))...)
	if err != nil {
		b.Fatal(err)
	}

	// Distinct seeds per query: FORA dedupes its seed set while
	// MultiSource sums duplicate mass, so a collision would change the
	// ground truth, not just the estimate.
	rng := rand.New(rand.NewSource(17))
	queries := make([][]int, pprBenchQueries)
	for qi := range queries {
		seen := map[int]bool{}
		for len(queries[qi]) < pprBenchSeeds {
			if s := rng.Intn(pprBenchN); !seen[s] {
				seen[s] = true
				queries[qi] = append(queries[qi], s)
			}
		}
	}
	// Iterate the exact baseline until its truncation error (1−α)^L is
	// ≤1e-7, far below the ε·δ=2.5e-5 precision the guarantee is checked
	// at — "full" power iteration, not one matched to FORA's accuracy.
	powerIters := int(math.Ceil(math.Log(1e-7) / math.Log(1-pprBenchAlpha)))

	// Warm both engines: the first query builds the pooled O(n) workspace.
	if _, err := eng.PPR(ctx, queries[0], pprBenchK); err != nil {
		b.Fatal(err)
	}
	if _, err := fast.PPR(ctx, queries[0], pprBenchK); err != nil {
		b.Fatal(err)
	}

	runAll := func(e *PPREngine) ([]*PPRResult, time.Duration) {
		start := time.Now()
		out := make([]*PPRResult, len(queries))
		for qi, seeds := range queries {
			r, err := e.PPR(ctx, seeds, pprBenchK)
			if err != nil {
				b.Fatal(err)
			}
			out[qi] = r
		}
		return out, time.Since(start)
	}

	for i := 0; i < b.N; i++ {
		foraRes, foraElapsed := runAll(eng)
		plusRes, plusElapsed := runAll(fast)
		if !plusRes[0].Stats.UsedIndex {
			b.Fatal("FORA+ engine did not use the walk index")
		}

		powerStart := time.Now()
		truths := make([][]float64, len(queries))
		for qi, seeds := range queries {
			s32 := make([]int32, len(seeds))
			for j, s := range seeds {
				s32[j] = int32(s)
			}
			truth, err := ppr.MultiSource(g, s32, pprBenchAlpha, powerIters)
			if err != nil {
				b.Fatal(err)
			}
			truths[qi] = truth
		}
		powerElapsed := time.Since(powerStart)

		maxRelErr, checked := 0.0, 0
		for qi := range queries {
			for _, res := range [2][]*PPRResult{foraRes, plusRes} {
				for _, s := range res[qi].Scores {
					truth := truths[qi][s.Node]
					if truth < pprBenchDelta {
						continue // below the guarantee threshold
					}
					checked++
					if rel := math.Abs(s.Score-truth) / truth; rel > maxRelErr {
						maxRelErr = rel
					}
				}
			}
		}
		if checked == 0 {
			b.Fatal("no top-k score reached the δ guarantee threshold; raise δ or k")
		}
		if maxRelErr > pprBenchEps {
			b.Fatalf("max relative error %.3f exceeds ε=%.2f on guaranteed nodes", maxRelErr, pprBenchEps)
		}

		if i == 0 {
			q := float64(len(queries))
			rec := &pprBenchRecord{
				N: pprBenchN, M: pprBenchM, Queries: pprBenchQueries, SeedsPerQuery: pprBenchSeeds,
				K: pprBenchK, Alpha: pprBenchAlpha, Epsilon: pprBenchEps,
				Delta: pprBenchDelta, PFail: pprBenchPFail,
				PowerIters: powerIters, WalksPerNode: pprBenchWalks,
				ForaMs:         float64(foraElapsed.Microseconds()) / 1000 / q,
				ForaPlusMs:     float64(plusElapsed.Microseconds()) / 1000 / q,
				PowerMs:        float64(powerElapsed.Microseconds()) / 1000 / q,
				SpeedupVsPower: powerElapsed.Seconds() / foraElapsed.Seconds(),
				IndexSpeedup:   foraElapsed.Seconds() / plusElapsed.Seconds(),
				MaxRelErr:      maxRelErr, CheckedScores: checked,
			}
			pprBenchMu.Lock()
			pprBenchRec = rec
			pprBenchMu.Unlock()
			fmt.Printf("\nppr query (n=%d, m=%d, %d seeds, ε=%.2g, δ=%.2g): fora %.1fms/q  fora+ %.1fms/q (%.2fx)  power(%d iters) %.0fms/q  speedup %.1fx  max rel err %.3f (%d scores)\n",
				pprBenchN, pprBenchM, pprBenchSeeds, pprBenchEps, pprBenchDelta,
				rec.ForaMs, rec.ForaPlusMs, rec.IndexSpeedup, powerIters, rec.PowerMs,
				rec.SpeedupVsPower, maxRelErr, checked)
		}
	}
}

// --- Kernel micro-benchmarks ---------------------------------------------

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := graph.GenSBM(graph.SBMConfig{N: 20000, M: 200000, Communities: 20, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkKernelSparseMulDense measures the CSR × dense product at the
// shape Algorithm 1's iterations use (m=200k, k′=64).
func BenchmarkKernelSparseMulDense(b *testing.B) {
	g := benchGraph(b)
	p := g.Transition()
	rng := rand.New(rand.NewSource(1))
	x := matrix.GaussianDense(g.N, 64, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.MulDense(x)
	}
}

// BenchmarkKernelBKSVD measures the randomized factorization alone.
func BenchmarkKernelBKSVD(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svd.BKSVD(g.Adj, svd.Options{Rank: 32, Epsilon: 0.2, Rng: rand.New(rand.NewSource(1))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelApproxPPR measures Algorithm 1 end to end.
func BenchmarkKernelApproxPPR(b *testing.B) {
	g := benchGraph(b)
	opt := core.DefaultOptions()
	opt.Dim = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ApproxPPRCtx(context.Background(), g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelReweighting measures the ℓ₂ coordinate-descent epochs of
// Algorithm 3 (lines 3-7) in isolation.
func BenchmarkKernelReweighting(b *testing.B) {
	g := benchGraph(b)
	opt := core.DefaultOptions()
	opt.Dim = 64
	emb, _, err := core.ApproxPPRCtx(context.Background(), g, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := core.LearnWeightsCtx(context.Background(), g, emb, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelForwardPush measures the push primitive underlying STRAP.
func BenchmarkKernelForwardPush(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ppr.ForwardPush(g, i%g.N, 0.15, 1e-5)
	}
}
