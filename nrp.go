// Package nrp is a from-scratch Go implementation of Node-Reweighted
// PageRank (NRP), the homogeneous network embedding method of Yang et al.,
// "Homogeneous Network Embedding for Massive Graphs via Reweighted
// Personalized PageRank" (PVLDB 13(5), 2020).
//
// NRP builds a forward and a backward embedding vector per node such that
// the inner product X_u·Y_vᵀ approximates a degree-reweighted personalized
// PageRank proximity →w_u·π(u,v)·←w_v. It runs in O(k(m+kn)·log n) time and
// O(m+nk) space, and handles both directed and undirected graphs.
//
// Basic usage:
//
//	g, err := nrp.LoadGraph("graph.txt", true)
//	emb, stats, err := nrp.EmbedCtx(ctx, g, nrp.DefaultOptions())
//	stats.Render(os.Stderr)          // per-phase wall time, iterations, residuals
//	score := emb.Score(u, v)         // directed proximity of (u → v)
//
// Long-running entry points take a context.Context and stop promptly with
// ctx.Err() when it is cancelled, and accept run options such as
// WithProgress for live phase/step reporting and WithThreads to bound the
// parallel compute engine (default: all cores — the build phases scale
// near-linearly with the core count):
//
//	emb, stats, err := nrp.EmbedCtx(ctx, g, opt, nrp.WithThreads(8),
//		nrp.WithProgress(func(ev nrp.ProgressEvent) {
//			log.Printf("%s %d/%d", ev.Phase, ev.Step, ev.Total)
//		}))
//
// For serving top-k proximity queries, build a query index over the
// embedding. BuildIndex selects among pluggable Searcher backends — the
// exact scan, an int8-quantized scan with exact rerank, and a norm-pruned
// scan with a Cauchy–Schwarz early exit — all sharded across goroutines:
//
//	s, err := nrp.BuildIndex(emb, nrp.WithBackend(nrp.BackendQuantized))
//	nbrs, err := s.TopK(ctx, u, 10)        // 10 nodes v maximizing Score(u, v)
//	res, err := s.TopKMany(ctx, us, 10)    // batched, with per-query QueryStats
//
// A built index persists with SaveIndex and boots back with LoadIndex
// (no re-quantization), which is how cmd/nrpserve serves HTTP traffic.
//
// Evolving graphs — the paper's VK/Digg workload — are served live: a
// DynamicEmbedding maintains the embedding under batched edge
// insertions/deletions with full, incremental (push-based) or
// staleness-gated refresh, and a LiveIndex swaps the serving index
// atomically so in-flight queries never fail during a refresh:
//
//	dyn, err := nrp.NewDynamicEmbedding(ctx, g, opt, nrp.DynamicConfig{})
//	live, err := nrp.NewLiveIndex(dyn, nrp.WithBackend(nrp.BackendQuantized))
//	live.ApplyUpdates(ctx, updates)
//	stats, err := live.Refresh(ctx)        // rebuild + zero-downtime swap
//
// The packages under internal/ implement the substrates (sparse linear
// algebra, randomized block-Krylov SVD, PPR computation, evaluation
// protocols, baselines and the experiment harness); this package is the
// stable public surface.
package nrp

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"

	"github.com/nrp-embed/nrp/internal/core"
	"github.com/nrp-embed/nrp/internal/gio"
	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/par"
)

// Graph is a node-indexed graph with CSR adjacency. Construct with
// NewGraph, ReadGraph or LoadGraph, or generate with the generators in this
// package.
type Graph = graph.Graph

// Edge is a (source, target) node-id pair.
type Edge = graph.Edge

// Options configure embedding construction; see DefaultOptions for the
// paper's settings.
type Options = core.Options

// Embedding holds per-node forward/backward vectors; see Score, Features,
// Save.
type Embedding = core.Embedding

// Phase identifies a pipeline stage in ProgressEvent and Stats; see
// core.PhaseFactorize and friends re-exported below.
type Phase = core.Phase

// Pipeline phases, in execution order.
const (
	PhaseFactorize  = core.PhaseFactorize
	PhasePPR        = core.PhasePPR
	PhaseReweight   = core.PhaseReweight
	PhaseAttributes = core.PhaseAttributes
)

// ProgressEvent reports one completed unit of work inside a pipeline phase.
type ProgressEvent = core.ProgressEvent

// ProgressFunc receives progress events; install with WithProgress.
type ProgressFunc = core.ProgressFunc

// PhaseStat records the wall time and step count of one pipeline phase.
type PhaseStat = core.PhaseStat

// Stats describes where an embedding run spent its time: per-phase wall
// time, Krylov iterations run, achieved factorization rank, and per-epoch
// reweighting residuals. Returned by the ctx-taking entry points.
type Stats = core.Stats

// RunOption configures a pipeline run; see WithProgress and WithThreads.
type RunOption = core.RunOption

// WithProgress installs a progress callback on a pipeline run. The callback
// runs synchronously on the computing goroutine and should return quickly.
func WithProgress(fn ProgressFunc) RunOption { return core.WithProgress(fn) }

// ThreadsOption bounds the worker threads of a parallel computation. It
// satisfies both RunOption (EmbedCtx, EmbedPPRCtx, LearnWeightsCtx,
// EmbedAttributedCtx, NewDynamicEmbedding) and IndexOption (BuildIndex),
// so one WithThreads value configures the whole stack.
type ThreadsOption int

// ApplyRun implements RunOption: the pipeline's compute kernels (BKSVD,
// PPR folding, reweighting sweeps) run on this many workers.
func (t ThreadsOption) ApplyRun(c *core.RunConfig) { c.Threads = int(t) }

// applyIndex implements IndexOption: build-time preprocessing
// (quantization, norm computation) runs on this many workers. The query-
// time fan-out is still governed by WithShards.
func (t ThreadsOption) applyIndex(c *indexConfig) { c.buildThreads = int(t) }

// WithThreads bounds the number of worker threads used by the embedding
// pipeline's compute kernels and by index-build preprocessing (0 or
// negative = GOMAXPROCS, the default). Embeddings computed with different
// thread counts agree to floating-point reassociation error (≈1e-12
// relative); repeated runs with the same thread count and seed are
// bit-identical.
//
//	emb, stats, err := nrp.EmbedCtx(ctx, g, opt, nrp.WithThreads(8))
//	s, err := nrp.BuildIndex(emb, nrp.WithThreads(8))
func WithThreads(n int) ThreadsOption { return ThreadsOption(n) }

// DefaultOptions returns the paper's parameter settings: k=128, α=0.15,
// ℓ₁=20, ℓ₂=10, ε=0.2, λ=10.
func DefaultOptions() Options { return core.DefaultOptions() }

// EmbedCtx computes NRP embeddings (Algorithm 3 of the paper): ApproxPPR
// factorization followed by degree-targeted node reweighting. The context
// is checked inside the BKSVD iterations, the PPR folding loop and the
// reweighting epochs; on cancellation EmbedCtx returns ctx.Err() promptly.
// Stats are returned even on error, covering the phases that ran. Options
// are validated up front.
func EmbedCtx(ctx context.Context, g *Graph, opt Options, opts ...RunOption) (*Embedding, *Stats, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, fmt.Errorf("nrp: invalid options: %w", err)
	}
	return core.NRPCtx(ctx, g, opt, opts...)
}

// EmbedPPRCtx computes the ApproxPPR baseline embeddings (Algorithm 1): the
// personalized-PageRank factorization without node reweighting. Context and
// stats behave as in EmbedCtx.
func EmbedPPRCtx(ctx context.Context, g *Graph, opt Options, opts ...RunOption) (*Embedding, *Stats, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, fmt.Errorf("nrp: invalid options: %w", err)
	}
	return core.ApproxPPRCtx(ctx, g, opt, opts...)
}

// LearnWeightsCtx exposes the reweighting phase on fixed embeddings,
// returning the forward and backward node weights of Eq. (5)/(6) plus run
// stats (per-epoch residuals). The context is checked between
// coordinate-descent passes. Options are validated up front.
func LearnWeightsCtx(ctx context.Context, g *Graph, emb *Embedding, opt Options, opts ...RunOption) (fw, bw []float64, stats *Stats, err error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("nrp: invalid options: %w", err)
	}
	return core.LearnWeightsCtx(ctx, g, emb, opt, opts...)
}

// NewGraph builds a graph from an edge list over n nodes. Undirected edges
// are symmetrized; self-loops and duplicates are dropped.
func NewGraph(n int, edges []Edge, directed bool) (*Graph, error) {
	return graph.New(n, edges, directed)
}

// ReadGraph reads a graph from r in either supported format, sniffing the
// magic bytes: an NRPG binary snapshot (written by SaveGraph or
// `nrp convert`) is decoded with full checksum verification and its stored
// directedness wins; anything else is parsed as a whitespace-separated
// edge list ("u v" per line, '#'/'%' comments) with the parallel chunked
// parser, which produces a graph bit-identical to the serial reader.
func ReadGraph(r io.Reader, directed bool) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic, err := br.Peek(4)
	if err == nil && gio.IsNRPG(magic) {
		g, _, err := gio.Load(br)
		return g, err
	}
	data, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("nrp: reading edge list: %w", err)
	}
	return gio.ParseEdgeList(data, directed, 0, par.New(0))
}

// LoadGraph reads a graph file from disk — an edge list or an NRPG
// snapshot, sniffed as in ReadGraph. NRPG snapshots are heap-loaded and
// fully verified; use LoadGraphMmap (or OpenGraph) to boot a large
// snapshot zero-copy. Unlike ReadGraph, the text path reads the file
// into one exactly-sized buffer instead of growing through io.ReadAll.
func LoadGraph(path string, directed bool) (*Graph, error) {
	bin, err := gio.SniffFile(path)
	if err != nil {
		return nil, fmt.Errorf("nrp: opening graph: %w", err)
	}
	if bin {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("nrp: opening graph: %w", err)
		}
		defer f.Close()
		g, _, err := gio.Load(f)
		return g, err
	}
	return loadGraphText(path, directed)
}

// loadGraphText reads an edge-list file into one exactly-sized buffer
// and runs the parallel parser over it.
func loadGraphText(path string, directed bool) (*Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("nrp: reading graph: %w", err)
	}
	return gio.ParseEdgeList(data, directed, 0, par.New(0))
}

// OpenGraph loads a graph file in either supported format, picking the
// fastest loader: NRPG snapshots are memory-mapped as in LoadGraphMmap
// (with its caveats), text edge lists are parsed in parallel as in
// LoadGraph (the closer is then a no-op). This is the boot path of
// cmd/nrp and cmd/nrpserve; the closer must stay open for as long as
// the graph is used.
func OpenGraph(path string, directed bool) (*Graph, io.Closer, error) {
	bin, err := gio.SniffFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("nrp: opening graph: %w", err)
	}
	if bin {
		return LoadGraphMmap(path)
	}
	g, err := loadGraphText(path, directed)
	if err != nil {
		return nil, nil, err
	}
	return g, io.NopCloser(nil), nil
}

// SaveGraph writes g to path as an NRPG v1 binary snapshot (labels
// included), the format LoadGraph sniffs and LoadGraphMmap boots
// zero-copy. Snapshots are deterministic: the same graph always produces
// the same bytes.
func SaveGraph(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nrp: creating snapshot: %w", err)
	}
	if err := gio.Save(f, g, nil); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadGraphMmap memory-maps an NRPG snapshot and returns a graph whose
// CSR arrays alias the read-only mapping: multi-gigabyte graphs boot in
// milliseconds, pages load lazily, and concurrent processes serving the
// same snapshot share one page-cache copy. The graph must not be used
// after the returned Closer is closed. Unlike LoadGraph, the trailing
// checksum and per-entry column indices are not verified (that would
// touch every page); load a snapshot of doubtful provenance with
// LoadGraph first. All mutation paths (AddEdges, RemoveEdges, live
// serving refreshes) are copy-on-write and therefore safe on a mapped
// graph.
func LoadGraphMmap(path string) (*Graph, io.Closer, error) {
	g, _, closer, err := gio.LoadMmap(path)
	return g, closer, err
}

// WriteGraph writes g as an edge list readable by ReadGraph.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// LoadEmbedding reads an embedding written by Embedding.Save.
func LoadEmbedding(r io.Reader) (*Embedding, error) { return core.Load(r) }

// GenErdosRenyi generates a uniform random graph with exactly m edges.
func GenErdosRenyi(n, m int, directed bool, seed int64) (*Graph, error) {
	return graph.GenErdosRenyi(n, m, directed, seed)
}

// SBMConfig parameterizes the labeled, degree-skewed stochastic-block-model
// generator; see GenSBM.
type SBMConfig = graph.SBMConfig

// GenSBM generates a labeled community graph with heavy-tailed degrees,
// useful for trying the embedding pipeline end to end without external
// data.
func GenSBM(cfg SBMConfig) (*Graph, error) { return graph.GenSBM(cfg) }

// AttributedOptions configure the attributed-graph extension; see
// EmbedAttributedCtx.
type AttributedOptions = core.AttributedOptions

// AttributedEmbedding couples topology embeddings with PPR-smoothed node
// attributes.
type AttributedEmbedding = core.AttributedEmbedding

// DefaultAttributedOptions returns the default attributed-graph settings
// (the paper's parameters plus β = 0.3 attribute weight).
func DefaultAttributedOptions() AttributedOptions { return core.DefaultAttributedOptions() }

// EmbedAttributedCtx implements the paper's stated future work: NRP on the
// topology fused with node attributes smoothed through the same truncated
// personalized-PageRank operator. attrs holds one row per node. Context and
// stats behave as in EmbedCtx, with the attribute propagation reported
// under PhaseAttributes.
func EmbedAttributedCtx(ctx context.Context, g *Graph, attrs [][]float64, opt AttributedOptions, opts ...RunOption) (*AttributedEmbedding, *Stats, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, fmt.Errorf("nrp: invalid options: %w", err)
	}
	return core.NRPAttributedCtx(ctx, g, matrix.NewDenseFromRows(attrs), opt, opts...)
}

// GenAttributes synthesizes label-correlated node attributes with Gaussian
// noise, for experimenting with EmbedAttributedCtx.
func GenAttributes(g *Graph, dim int, noise float64, seed int64) ([][]float64, error) {
	return graph.GenAttributes(g, dim, noise, seed)
}
