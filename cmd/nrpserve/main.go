// Command nrpserve serves NRP proximity queries over HTTP: top-k
// retrieval and batch scoring over a saved index snapshot, a raw
// embedding indexed at boot, or — for evolving graphs — a live index
// embedded from an edge list at boot and refreshed in place as updates
// stream in.
//
// Usage:
//
//	nrpserve -index index.bin [-addr :8080] [-shards 0] [-drain 10s]
//	         [-ef-search 64] [-hnsw-seed-rows 0] [-shard i/N]
//	nrpserve -embedding emb.bin -backend quantized [-shards 0] [-rerank 4] [-include-self]
//	nrpserve -graph graph.txt [-directed] [-dim 128] [-seed 1] [-backend exact]
//	         [-refresh-policy incremental] [-refresh-interval 30s] [-threads 0]
//
// With -index the snapshot's build-time preprocessing (quantization
// codes, norm permutation, the HNSW graph) is loaded as-is — no
// re-quantizing or graph rebuild at boot; -shards/-rerank/-ef-search/
// -hnsw-seed-rows override the snapshot's serving configuration (the
// HNSW knobs are rejected unless the snapshot holds an HNSW index). With
// -embedding the index is built in memory at boot with the -backend of
// choice — -backend hnsw plus -hnsw-quant builds the sublinear graph
// backend with the int8 coarse stage.
//
// With -graph the server embeds the graph at boot and accepts live edge
// updates. The file may be a text edge list or an NRPG binary snapshot
// (`nrp convert`), sniffed by magic bytes; snapshots are memory-mapped,
// so the graph itself loads in milliseconds and its pages are shared
// with other processes serving the same file (-directed applies to text
// input only — a snapshot stores its own orientation). POST /v1/update
// stages batched insertions/removals and POST
// /v1/refresh brings the embedding in sync under -refresh-policy (full,
// incremental or staleness) and atomically swaps the serving index —
// in-flight queries finish on the old index, zero downtime. A positive
// -refresh-interval additionally refreshes in the background whenever
// updates are pending.
//
// Endpoints (JSON in/out, except /metrics):
//
//	GET  /v1/healthz
//	GET  /v1/topk?u=42&k=10[&stats=1]
//	POST /v1/topk    {"us":[1,2,3],"k":10}
//	POST /v1/score   {"pairs":[[0,1],[2,3]]}
//	POST /v1/ppr     {"seeds":[1,2],"k":10}                (-graph only)
//	POST /v1/update  {"insert":[[0,1]],"remove":[[2,3]]}   (-graph only)
//	POST /v1/refresh {}                                    (-graph only)
//	GET  /metrics    Prometheus text exposition
//
// Observability and traffic protection: every request is counted and
// timed on /metrics and logged as one structured line (-log-format
// json|text, -log-level). -rate-limit R enables per-client-IP
// token-bucket limiting at R req/s (-rate-burst B tokens of burst; 429 +
// Retry-After beyond that). -coalesce aggregates concurrent
// single-source /v1/topk calls into one batched TopKMany pass,
// deduplicating hot sources — a throughput win under concurrent skewed
// traffic (see cmd/nrpload to measure it).
//
// A -graph server additionally answers online seed-set PPR queries with
// the FORA two-phase estimator at /v1/ppr; queries observe edges applied
// through /v1/update immediately, no refresh required. -ppr-alpha and
// -ppr-epsilon set the engine defaults; -ppr-walks N precomputes a FORA+
// walk index (N walk endpoints per node) at boot, and when the graph is
// an NRPG snapshot saved with a walk index (`nrp convert -walk-index`),
// that index is used without re-simulation.
//
// Sharded serving: -shard i/N (0-based) restricts top-k candidates to
// the i-th of N contiguous node-range slices while still loading the full
// snapshot, so /v1/score and any query source work unchanged. N such
// processes behind cmd/nrprouter answer exactly what one unsharded server
// would; the slice is advertised in /v1/healthz for the router to
// validate. -shard composes with -index and -embedding but not -graph or
// -backend hnsw (the HNSW beam search is global by construction).
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight queries for up to -drain before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/nrp-embed/nrp"
	"github.com/nrp-embed/nrp/internal/serve"
)

// defaultLogLevel seeds the -log-level flag; the test harness lowers it
// to "error" so e2e tests stay quiet without threading flags everywhere.
var defaultLogLevel = "info"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nrpserve:", err)
		os.Exit(1)
	}
}

type config struct {
	server       *serve.Server
	live         *nrp.LiveIndex // nil unless booted with -graph
	graphCloser  io.Closer      // non-nil when -graph mapped an NRPG snapshot
	refreshEvery time.Duration
	addr         string
	drain        time.Duration
	logger       *slog.Logger
}

// newServerFromFlags parses args, loads or builds the Searcher, and
// returns the wrapped HTTP server; separated from run so tests can drive
// the handler without binding a port.
func newServerFromFlags(ctx context.Context, args []string) (*config, error) {
	fs := flag.NewFlagSet("nrpserve", flag.ContinueOnError)
	var (
		indexPath   = fs.String("index", "", "index snapshot written by `nrp index` or nrp.SaveIndex")
		embPath     = fs.String("embedding", "", "embedding file to index at boot (alternative to -index)")
		graphPath   = fs.String("graph", "", "edge-list file to embed at boot and serve live (alternative to -index/-embedding)")
		directed    = fs.Bool("directed", false, "treat -graph edges as directed")
		dim         = fs.Int("dim", 128, "embedding dimensionality for -graph (even)")
		seed        = fs.Int64("seed", 1, "random seed for -graph embedding")
		policyName  = fs.String("refresh-policy", "incremental", "live refresh policy for -graph: full, incremental or staleness")
		refreshIntv = fs.Duration("refresh-interval", 0, "background refresh period for -graph when updates are pending (0 = refresh only via /v1/refresh)")
		backendName = fs.String("backend", "exact", "backend for -embedding/-graph: exact, quantized, pruned or hnsw")
		shards      = fs.Int("shards", 0, "scan shards per query (0 = all cores)")
		shardSpec   = fs.String("shard", "", "serve one slice i/N of the node space, e.g. -shard 0/3 (scatter-gather via cmd/nrprouter; -index/-embedding only)")
		threads     = fs.Int("threads", 0, "worker threads for -graph embedding/refreshes and index builds (0 = all cores)")
		rerank      = fs.Int("rerank", 0, "quantized shortlist multiplier (0 = default/snapshot value)")
		efSearch    = fs.Int("ef-search", 0, "HNSW query beam width (default/snapshot value if unset)")
		seedRows    = fs.Int("hnsw-seed-rows", 0, "HNSW top-norm rows seeding each query's beam (default 4x ef-search if unset; 0 disables)")
		hnswQuant   = fs.Bool("hnsw-quant", false, "HNSW: score in-graph with the int8 quantized kernel, rerank exactly (-embedding/-graph only)")
		includeSelf = fs.Bool("include-self", false, "admit the query node as a result (overrides a snapshot's stored choice)")
		addr        = fs.String("addr", ":8080", "listen address")
		drain       = fs.Duration("drain", 10*time.Second, "in-flight query drain window on shutdown")
		maxK        = fs.Int("max-k", 1000, "largest k a request may ask for")
		maxBatch    = fs.Int("max-batch", 1024, "largest batch of sources, pairs, seeds or updates per request")
		pprWalks    = fs.Int("ppr-walks", 0, "FORA+ walk-index size for -graph: walks per node precomputed at boot (0 = use the snapshot's stored index, if any)")
		pprAlpha    = fs.Float64("ppr-alpha", 0, "PPR termination probability for /v1/ppr (0 = default 0.15)")
		pprEpsilon  = fs.Float64("ppr-epsilon", 0, "PPR relative error bound for /v1/ppr (0 = default 0.5)")
		logFormat   = fs.String("log-format", "text", "structured log format: text or json")
		logLevel    = fs.String("log-level", defaultLogLevel, "minimum log level: debug, info, warn or error (request lines log at info)")
		rateLimit   = fs.Float64("rate-limit", 0, "per-client requests/second; over-limit requests get 429 with Retry-After (0 = unlimited)")
		rateBurst   = fs.Int("rate-burst", 0, "per-client token-bucket burst (default max(1, rate-limit))")
		coalesce    = fs.Bool("coalesce", false, "aggregate concurrent single-source /v1/topk calls into one batched TopKMany pass")
		coalesceWin = fs.Duration("coalesce-window", 0, "how long a lone coalescing leader waits for concurrent callers before scanning (default 250µs, negative disables)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	logger, err := serve.NewLogger(*logFormat, *logLevel)
	if err != nil {
		return nil, err
	}
	sources := 0
	for _, p := range []string{*indexPath, *embPath, *graphPath} {
		if p != "" {
			sources++
		}
	}
	if sources != 1 {
		fs.Usage()
		return nil, fmt.Errorf("exactly one of -index, -embedding and -graph is required")
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	shardIdx, shardCnt := -1, 0
	if *shardSpec != "" {
		if *graphPath != "" {
			return nil, fmt.Errorf("-shard requires a static index (-index or -embedding); a live -graph server re-embeds and cannot hold a stable slice")
		}
		if _, err := fmt.Sscanf(*shardSpec, "%d/%d", &shardIdx, &shardCnt); err != nil {
			return nil, fmt.Errorf("-shard must look like i/N, e.g. 0/3: %w", err)
		}
	}

	// HNSW options are forwarded only when explicitly set: the library
	// validates them against the backend (and, for snapshots, against
	// what is baked in), so a stray flag fails loudly instead of being
	// silently ignored.
	var hnswOpts []nrp.IndexOption
	if set["ef-search"] {
		hnswOpts = append(hnswOpts, nrp.WithEfSearch(*efSearch))
	}
	if set["hnsw-seed-rows"] {
		hnswOpts = append(hnswOpts, nrp.WithHNSWSeedRows(*seedRows))
	}
	if set["hnsw-quant"] {
		hnswOpts = append(hnswOpts, nrp.WithHNSWQuantized(*hnswQuant))
	}

	var searcher nrp.Searcher
	var live *nrp.LiveIndex
	var pprEngine *nrp.PPREngine
	var graphCloser io.Closer
	// Unmap a -graph snapshot if a later boot step fails: the CLI would
	// exit anyway, but tests (and any embedder) call this repeatedly.
	bootOK := false
	defer func() {
		if !bootOK && graphCloser != nil {
			graphCloser.Close()
		}
	}()
	switch {
	case *indexPath != "":
		if set["backend"] {
			return nil, fmt.Errorf("-backend is baked into the snapshot; it cannot be combined with -index")
		}
		f, err := os.Open(*indexPath)
		if err != nil {
			return nil, err
		}
		var opts []nrp.IndexOption
		if *shards > 0 {
			opts = append(opts, nrp.WithShards(*shards))
		}
		if *rerank > 0 {
			opts = append(opts, nrp.WithRerank(*rerank))
		}
		if set["include-self"] {
			opts = append(opts, nrp.WithIncludeSelf(*includeSelf))
		}
		if *shardSpec != "" {
			opts = append(opts, nrp.WithShardSlice(shardIdx, shardCnt))
		}
		opts = append(opts, hnswOpts...)
		searcher, err = nrp.LoadIndex(f, opts...)
		f.Close()
		if err != nil {
			return nil, err
		}
	case *graphPath != "":
		backend, err := nrp.ParseBackend(*backendName)
		if err != nil {
			return nil, err
		}
		policy, err := nrp.ParseRefreshPolicy(*policyName)
		if err != nil {
			return nil, err
		}
		// NRPG snapshots are memory-mapped: multi-gigabyte graphs boot in
		// milliseconds and share page cache across server processes; live
		// updates are copy-on-write, so the read-only mapping is safe. The
		// closer stays open for the server's lifetime. A snapshot saved
		// with a walk index hands it to the PPR engine for free.
		g, storedIdx, closer, err := nrp.OpenGraphIndexed(*graphPath, *directed)
		if err != nil {
			return nil, err
		}
		graphCloser = closer
		opt := nrp.DefaultOptions()
		opt.Dim = *dim
		opt.Seed = *seed
		if err := opt.Validate(); err != nil {
			return nil, err
		}
		start := time.Now()
		logger.Info("embedding graph", "nodes", g.N, "edges", g.NumEdges)
		dyn, err := nrp.NewDynamicEmbedding(ctx, g, opt, nrp.DynamicConfig{Policy: policy}, nrp.WithThreads(*threads))
		if err != nil {
			return nil, err
		}
		logger.Info("embedded", "wall", time.Since(start).Round(time.Millisecond))
		opts := []nrp.IndexOption{
			nrp.WithBackend(backend),
			nrp.WithShards(*shards),
			nrp.WithIncludeSelf(*includeSelf),
			nrp.WithThreads(*threads),
		}
		if *rerank > 0 {
			opts = append(opts, nrp.WithRerank(*rerank))
		}
		opts = append(opts, hnswOpts...)
		live, err = nrp.NewLiveIndex(dyn, opts...)
		if err != nil {
			return nil, err
		}
		searcher = live
		pprOpts := []nrp.PPROption{nrp.WithThreads(*threads)}
		if *pprAlpha != 0 {
			pprOpts = append(pprOpts, nrp.WithAlpha(*pprAlpha))
		}
		if *pprEpsilon != 0 {
			pprOpts = append(pprOpts, nrp.WithEpsilon(*pprEpsilon))
		}
		switch {
		case *pprWalks > 0:
			start := time.Now()
			wi, err := nrp.BuildWalkIndex(ctx, g, *pprWalks, pprOpts...)
			if err != nil {
				return nil, err
			}
			logger.Info("walk index built", "walks_per_node", *pprWalks,
				"wall", time.Since(start).Round(time.Millisecond))
			pprOpts = append(pprOpts, nrp.WithWalkIndex(wi))
		case storedIdx != nil:
			logger.Info("using snapshot walk index", "walks_per_node", storedIdx.WalksPerNode())
			pprOpts = append(pprOpts, nrp.WithWalkIndex(storedIdx))
		}
		pprEngine, err = nrp.NewPPREngine(g, pprOpts...)
		if err != nil {
			return nil, err
		}
		// Keep indexed PPR queries honest under live edge updates: mark
		// walk-index rows stale as update batches land, so stale starts
		// fall back to live walks until the lazy repair re-walks them.
		if idx := pprEngine.Index(); idx != nil {
			idx.EnableMaintenance()
			dyn.SetWalkInvalidator(idx)
			logger.Info("walk index maintenance enabled",
				"walks_per_node", idx.WalksPerNode())
		}
	default:
		backend, err := nrp.ParseBackend(*backendName)
		if err != nil {
			return nil, err
		}
		f, err := os.Open(*embPath)
		if err != nil {
			return nil, err
		}
		emb, err := nrp.LoadEmbedding(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		opts := []nrp.IndexOption{
			nrp.WithBackend(backend),
			nrp.WithShards(*shards),
			nrp.WithIncludeSelf(*includeSelf),
			nrp.WithThreads(*threads),
		}
		if *rerank > 0 {
			opts = append(opts, nrp.WithRerank(*rerank))
		}
		if *shardSpec != "" {
			opts = append(opts, nrp.WithShardSlice(shardIdx, shardCnt))
		}
		opts = append(opts, hnswOpts...)
		searcher, err = nrp.BuildIndex(emb, opts...)
		if err != nil {
			return nil, err
		}
	}
	if live == nil {
		for _, name := range []string{"refresh-policy", "refresh-interval", "dim", "seed", "directed", "ppr-walks", "ppr-alpha", "ppr-epsilon"} {
			if set[name] {
				return nil, fmt.Errorf("-%s requires -graph", name)
			}
		}
	}

	label := "unknown"
	if b, ok := searcher.(interface{ Backend() nrp.Backend }); ok {
		label = b.Backend().String()
	}
	svCfg := serve.Config{
		Backend:        label,
		MaxK:           *maxK,
		MaxBatch:       *maxBatch,
		PPR:            pprEngine,
		Logger:         logger,
		RateLimit:      *rateLimit,
		RateBurst:      *rateBurst,
		Coalesce:       *coalesce,
		CoalesceWindow: *coalesceWin,
	}
	if *shardSpec != "" {
		lo, hi := nrp.ShardRange(searcher.N(), shardIdx, shardCnt)
		svCfg.Shard = &serve.ShardInfo{Index: shardIdx, Count: shardCnt, Lo: lo, Hi: hi}
		logger.Info("serving shard slice", "shard", *shardSpec, "lo", lo, "hi", hi)
	}
	var sv *serve.Server
	if live != nil {
		sv = serve.NewLiveServer(live, svCfg)
	} else {
		sv = serve.NewServer(searcher, svCfg)
	}
	bootOK = true
	return &config{server: sv, live: live, graphCloser: graphCloser,
		refreshEvery: *refreshIntv, addr: *addr, drain: *drain, logger: logger}, nil
}

// refreshLoop refreshes the live index whenever updates are pending, once
// per tick, until ctx is cancelled. Each refresh is recorded on the
// server's /metrics registry, so background swaps are as observable as
// /v1/refresh ones.
func refreshLoop(ctx context.Context, live *nrp.LiveIndex, every time.Duration, m *serve.Metrics, logger *slog.Logger) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if live.Pending() == 0 {
				continue
			}
			st, err := live.Refresh(ctx)
			if err != nil {
				if ctx.Err() == nil {
					logger.Error("background refresh failed", "err", err)
				}
				continue
			}
			m.ObserveRefresh(st)
			if st.Mode == nrp.RefreshedSkipped {
				continue // staleness policy below threshold: nothing happened
			}
			logger.Info("refreshed", "mode", st.Mode, "touched", st.TouchedNodes,
				"wall", st.Wall.Round(time.Millisecond))
		}
	}
}

func run(ctx context.Context, args []string) error {
	cfg, err := newServerFromFlags(ctx, args)
	if err != nil {
		return err
	}
	// The refresh loop runs under its own cancelable context so it can be
	// stopped (and joined) even when serve.Serve returns an error without
	// the signal context ever being cancelled.
	loopCtx, stopLoop := context.WithCancel(ctx)
	defer stopLoop()
	var refreshDone chan struct{}
	if cfg.live != nil && cfg.refreshEvery > 0 {
		refreshDone = make(chan struct{})
		go func() {
			defer close(refreshDone)
			refreshLoop(loopCtx, cfg.live, cfg.refreshEvery, cfg.server.Metrics(), cfg.logger)
		}()
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	cfg.logger.Info("listening", "addr", ln.Addr().String(), "drain", cfg.drain)
	err = cfg.server.Serve(ctx, ln, cfg.drain)
	// Join the background refresh loop before unmapping the graph: a
	// refresh caught mid-recompute at shutdown still reads the mapped CSR
	// arrays, and munmapping under it would segfault instead of exiting
	// cleanly.
	stopLoop()
	if refreshDone != nil {
		<-refreshDone
	}
	if cfg.graphCloser != nil {
		cfg.graphCloser.Close()
	}
	return err
}
