// Command nrp computes NRP (or ApproxPPR) embeddings for a graph given as
// an edge list, builds query-index snapshots, and serves top-k proximity
// queries over saved embeddings or snapshots.
//
// Usage:
//
//	nrp -input graph.txt -output emb.bin [-directed] [-method nrp|approxppr]
//	    [-k 128] [-alpha 0.15] [-l1 20] [-l2 10] [-eps 0.2] [-lambda 10] [-seed 1]
//	    [-progress] [-threads 0] [-estimator push|fora]
//	nrp index -embedding emb.bin -output index.bin [-backend exact|quantized|pruned|hnsw]
//	    [-shards 0] [-rerank 4] [-include-self] [-threads 0]
//	    [-hnsw-m 16] [-hnsw-efc 200] [-hnsw-seed 1] [-hnsw-quant]
//	    [-ef-search 64] [-hnsw-seed-rows 0]
//	nrp topk -embedding emb.bin -source 42 [-k 10] [-backend quantized] [-include-self]
//	nrp topk -index index.bin -source 42 [-k 10] [-ef-search 64] [-hnsw-seed-rows 0]
//	nrp update -server http://localhost:8080 [-insert new.txt] [-remove gone.txt]
//	    [-refresh] [-batch 1024]
//	nrp ppr -input graph.txt -seeds 3,17,42 [-k 10] [-alpha 0.15] [-epsilon 0.5]
//	    [-directed] [-walks 0] [-threads 0] [-json]
//	nrp convert -input graph.txt -output graph.nrpg [-directed] [-labels graph.labels]
//	    [-walk-index 0] [-walk-alpha 0.15] [-walk-seed 1]
//	nrp convert -input graph.nrpg -output graph.txt
//
// `nrp index` persists the built index (including the backend's
// build-time preprocessing) for cmd/nrpserve to boot from. `nrp update`
// streams edge insertions/removals (edge-list files, "u v" per line) to a
// live nrpserve instance started with -graph, then optionally triggers a
// refresh so the serving index absorbs them. `nrp ppr` answers one online
// seed-set PPR query with the FORA estimator — the offline twin of
// nrpserve's /v1/ppr endpoint; -walks N precomputes a FORA+ walk index
// before querying, and an NRPG input saved with one uses it
// automatically. `nrp convert` translates between text edge lists and
// NRPG binary snapshots (format auto-detected from the input's magic
// bytes, overridable with -to); a binary → binary conversion re-verifies
// the checksum and rewrites the snapshot. `nrp convert -walk-index N`
// additionally simulates N walks per node and bundles the FORA+ index
// into the snapshot, so PPR-serving processes boot without re-simulating
// (older readers skip the extra section).
//
// Graph-reading flags (-input here, -graph on nrpserve) accept either
// format, sniffed by magic bytes. NRPG snapshots are memory-mapped, so an
// embed run on a multi-gigabyte graph starts in milliseconds instead of
// re-parsing text. Embedding runs print per-phase stats on completion and
// cancel gracefully on SIGINT/SIGTERM, exiting without writing a partial
// output file.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/nrp-embed/nrp"
	"github.com/nrp-embed/nrp/internal/gio"
	"github.com/nrp-embed/nrp/internal/graph"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nrp:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "topk":
			return runTopK(ctx, args[1:])
		case "index":
			return runIndexBuild(ctx, args[1:])
		case "update":
			return runUpdate(ctx, args[1:])
		case "ppr":
			return runPPR(ctx, args[1:])
		case "convert":
			return runConvert(ctx, args[1:])
		}
	}
	return runEmbed(ctx, args)
}

// runPPR answers one online seed-set PPR query from the command line —
// load (or map) the graph, run the FORA estimator, print the top-k.
func runPPR(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("nrp ppr", flag.ContinueOnError)
	var (
		input    = fs.String("input", "", "graph file: edge list or NRPG snapshot (required)")
		seedsStr = fs.String("seeds", "", "comma-separated seed node ids (required)")
		k        = fs.Int("k", 10, "number of top results to return")
		alpha    = fs.Float64("alpha", 0, "walk termination probability (0 = default 0.15)")
		epsilon  = fs.Float64("epsilon", 0, "relative error bound (0 = default 0.5)")
		directed = fs.Bool("directed", false, "treat text edge-list input as directed")
		walks    = fs.Int("walks", 0, "precompute a FORA+ walk index with this many walks per node before querying (0 = none)")
		threads  = fs.Int("threads", 0, "worker threads for walks (0 = all cores)")
		jsonOut  = fs.Bool("json", false, "write the result as JSON to stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" || *seedsStr == "" {
		fs.Usage()
		return fmt.Errorf("-input and -seeds are required")
	}
	var seeds []int
	for _, fld := range strings.Split(*seedsStr, ",") {
		fld = strings.TrimSpace(fld)
		if fld == "" {
			continue
		}
		s, err := strconv.Atoi(fld)
		if err != nil {
			return fmt.Errorf("bad seed id %q", fld)
		}
		seeds = append(seeds, s)
	}

	loadStart := time.Now()
	g, storedIdx, closer, err := nrp.OpenGraphIndexed(*input, *directed)
	if err != nil {
		return err
	}
	defer closer.Close()
	fmt.Fprintf(os.Stderr, "loaded %d nodes, %d edges in %v\n", g.N, g.NumEdges, time.Since(loadStart).Round(time.Millisecond))

	opts := []nrp.PPROption{nrp.WithThreads(*threads)}
	if *alpha != 0 {
		opts = append(opts, nrp.WithAlpha(*alpha))
	}
	if *epsilon != 0 {
		opts = append(opts, nrp.WithEpsilon(*epsilon))
	}
	switch {
	case *walks > 0:
		start := time.Now()
		wi, err := nrp.BuildWalkIndex(ctx, g, *walks, opts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "walk index (%d walks/node) built in %v\n", *walks, time.Since(start).Round(time.Millisecond))
		opts = append(opts, nrp.WithWalkIndex(wi))
	case storedIdx != nil:
		fmt.Fprintf(os.Stderr, "using snapshot walk index (%d walks/node)\n", storedIdx.WalksPerNode())
		opts = append(opts, nrp.WithWalkIndex(storedIdx))
	}
	pe, err := nrp.NewPPREngine(g, opts...)
	if err != nil {
		return err
	}
	res, err := pe.Query(ctx, nrp.PPRQuery{Seeds: seeds, K: *k})
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(os.Stderr, "ppr of %d seeds over %d nodes: push %v (%d nodes, rmax %.3g), %d walks in %v (index=%v), %d candidates\n",
		len(seeds), g.N, st.PushTime.Round(time.Microsecond), st.Pushed, st.Rmax,
		st.Walks, st.WalkTime.Round(time.Microsecond), st.UsedIndex, st.Candidates)

	if *jsonOut {
		type scoreJSON struct {
			Node  int     `json:"node"`
			Score float64 `json:"score"`
		}
		out := struct {
			Seeds  []int       `json:"seeds"`
			K      int         `json:"k"`
			Scores []scoreJSON `json:"scores"`
		}{Seeds: seeds, K: *k}
		for _, s := range res.Scores {
			out.Scores = append(out.Scores, scoreJSON{Node: s.Node, Score: s.Score})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	for rank, s := range res.Scores {
		fmt.Printf("%-4d %-10d %s\n", rank+1, s.Node, strconv.FormatFloat(s.Score, 'g', 6, 64))
	}
	return nil
}

// runConvert translates between the text edge-list format and NRPG
// binary snapshots. Snapshot input is fully verified (checksum and CSR
// structure) and its attributes section, which the text format cannot
// represent, is carried through to snapshot output.
func runConvert(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("nrp convert", flag.ContinueOnError)
	var (
		input      = fs.String("input", "", "input graph: edge list or NRPG snapshot (required)")
		output     = fs.String("output", "", "output path (required)")
		to         = fs.String("to", "auto", "output format: nrpg, edges, or auto (the opposite of the input)")
		directed   = fs.Bool("directed", false, "treat text edge-list input as directed (snapshots store their own)")
		labelsPath = fs.String("labels", "", "label file to bundle into the snapshot (text input only)")
		walkIdx    = fs.Int("walk-index", 0, "bundle a FORA+ walk index with this many walks per node into the snapshot (nrpg output only)")
		walkAlpha  = fs.Float64("walk-alpha", 0.15, "walk termination probability for -walk-index")
		walkSeed   = fs.Int64("walk-seed", 1, "RNG seed for -walk-index")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" || *output == "" {
		fs.Usage()
		return fmt.Errorf("-input and -output are required")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	bin, err := gio.SniffFile(*input)
	if err != nil {
		return err
	}
	if bin && *labelsPath != "" {
		return fmt.Errorf("-labels applies to text input; snapshots carry their labels inline")
	}

	start := time.Now()
	var g *nrp.Graph
	var attrs [][]float64
	if bin {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		g, attrs, err = gio.Load(f) // full verification, attributes kept
		f.Close()
		if err != nil {
			return err
		}
	} else {
		var err error
		if g, err = nrp.LoadGraph(*input, *directed); err != nil {
			return err
		}
	}
	if *labelsPath != "" {
		lf, err := os.Open(*labelsPath)
		if err != nil {
			return err
		}
		labels, numLabels, err := graph.ReadLabels(lf, g.N)
		lf.Close()
		if err != nil {
			return err
		}
		if g, err = g.WithLabels(labels, numLabels); err != nil {
			return err
		}
	}
	loadElapsed := time.Since(start)

	format := *to
	if format == "auto" {
		if bin {
			format = "edges"
		} else {
			format = "nrpg"
		}
	}
	start = time.Now()
	switch format {
	case "nrpg":
		snap := &gio.Snapshot{Graph: g, Attrs: attrs}
		if *walkIdx > 0 {
			wi, err := nrp.BuildWalkIndex(ctx, g, *walkIdx,
				nrp.WithAlpha(*walkAlpha), nrp.WithPPRSeed(*walkSeed))
			if err != nil {
				return err
			}
			snap.WalkIndex = &gio.WalkIndexSection{
				Alpha:        wi.Alpha(),
				WalksPerNode: wi.WalksPerNode(),
				Seed:         wi.Seed(),
				Ends:         wi.Raw(),
			}
			fmt.Fprintf(os.Stderr, "walk index: %d walks/node at alpha %g\n", *walkIdx, *walkAlpha)
		}
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		if err := gio.SaveSnapshot(f, snap); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	case "edges":
		if *walkIdx > 0 {
			return fmt.Errorf("-walk-index requires nrpg output; the text format has no optional sections")
		}
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		if err := nrp.WriteGraph(f, g); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if g.Labels != nil {
			lf, err := os.Create(*output + ".labels")
			if err != nil {
				return err
			}
			if err := graph.WriteLabels(lf, g.Labels); err != nil {
				lf.Close()
				return err
			}
			if err := lf.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s.labels (%d classes)\n", *output, g.NumLabels)
		}
		if attrs != nil {
			fmt.Fprintf(os.Stderr, "warning: the text format cannot carry the snapshot's %d-dimensional attributes section; dropped\n", len(attrs[0]))
		}
	default:
		return fmt.Errorf("unknown -to format %q (want nrpg, edges or auto)", format)
	}
	st, err := os.Stat(*output)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "converted %d nodes, %d edges (directed=%v, labels=%d): read %v, wrote %s (%.1f MB) in %v\n",
		g.N, g.NumEdges, g.Directed, g.NumLabels,
		loadElapsed.Round(time.Millisecond), *output,
		float64(st.Size())/(1<<20), time.Since(start).Round(time.Millisecond))
	return nil
}

func runEmbed(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("nrp", flag.ContinueOnError)
	var (
		input     = fs.String("input", "", "edge-list file (required)")
		output    = fs.String("output", "", "output embedding file (required)")
		directed  = fs.Bool("directed", false, "treat edges as directed")
		method    = fs.String("method", "nrp", "embedding method: nrp or approxppr")
		k         = fs.Int("k", 128, "embedding dimensionality (even)")
		alpha     = fs.Float64("alpha", 0.15, "random walk decay factor α")
		l1        = fs.Int("l1", 20, "PPR truncation order ℓ1")
		l2        = fs.Int("l2", 10, "reweighting epochs ℓ2")
		eps       = fs.Float64("eps", 0.2, "BKSVD error threshold ε")
		lambda    = fs.Float64("lambda", 10, "reweighting regularizer λ")
		seed      = fs.Int64("seed", 1, "random seed")
		progress  = fs.Bool("progress", false, "log per-phase progress to stderr")
		threads   = fs.Int("threads", 0, "worker threads for the compute engine (0 = all cores)")
		estimator = fs.String("estimator", "", "approximate-PPR backend: push (default) or fora")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" || *output == "" {
		fs.Usage()
		return fmt.Errorf("-input and -output are required")
	}

	opt := nrp.DefaultOptions()
	opt.Dim = *k
	opt.Alpha = *alpha
	opt.L1 = *l1
	opt.L2 = *l2
	opt.Epsilon = *eps
	opt.Lambda = *lambda
	opt.Seed = *seed
	// Fail fast on inconsistent flags, before any graph loading.
	if err := opt.Validate(); err != nil {
		return err
	}
	est, err := nrp.ParseEstimator(*estimator)
	if err != nil {
		return err
	}

	loadStart := time.Now()
	g, graphCloser, err := nrp.OpenGraph(*input, *directed)
	if err != nil {
		return err
	}
	defer graphCloser.Close()
	fmt.Fprintf(os.Stderr, "loaded %d nodes, %d edges in %v\n", g.N, g.NumEdges, time.Since(loadStart).Round(time.Millisecond))

	runOpts := []nrp.RunOption{nrp.WithThreads(*threads), nrp.WithEstimator(est)}
	if *progress {
		runOpts = append(runOpts, nrp.WithProgress(func(ev nrp.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "  [%v] %s %d/%d\n", ev.Elapsed.Round(time.Millisecond), ev.Phase, ev.Step, ev.Total)
		}))
	}

	var emb *nrp.Embedding
	var stats *nrp.Stats
	switch *method {
	case "nrp":
		emb, stats, err = nrp.EmbedCtx(ctx, g, opt, runOpts...)
	case "approxppr":
		emb, stats, err = nrp.EmbedPPRCtx(ctx, g, opt, runOpts...)
	default:
		return fmt.Errorf("unknown method %q (want nrp or approxppr)", *method)
	}
	if err != nil {
		if ctx.Err() != nil && stats != nil {
			fmt.Fprintf(os.Stderr, "cancelled after %v\n", stats.Total.Round(time.Millisecond))
		}
		return err
	}
	stats.Render(os.Stderr)

	f, err := os.Create(*output)
	if err != nil {
		return err
	}
	if err := emb.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadSearcher resolves the -embedding/-index flag pair shared by the
// topk subcommand: a snapshot is loaded as built (serving knobs may
// override its stored configuration), a raw embedding is indexed on the
// fly with the requested backend. includeSelf is a pointer so that only
// an explicitly set flag overrides a snapshot's stored choice. extra
// carries explicitly set HNSW flags; the library rejects the ones that
// are baked into a snapshot (build-time parameters) with a clear error,
// so they are passed through on both paths.
func loadSearcher(embPath, indexPath, backendName string, backendSet bool, shards, rerank int, includeSelf *bool, extra ...nrp.IndexOption) (nrp.Searcher, error) {
	if (embPath == "") == (indexPath == "") {
		return nil, fmt.Errorf("exactly one of -embedding and -index is required")
	}
	if indexPath != "" {
		if backendSet {
			return nil, fmt.Errorf("-backend is baked into the snapshot; it cannot be combined with -index")
		}
		f, err := os.Open(indexPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var opts []nrp.IndexOption
		if shards > 0 {
			opts = append(opts, nrp.WithShards(shards))
		}
		if rerank > 0 {
			opts = append(opts, nrp.WithRerank(rerank))
		}
		if includeSelf != nil {
			opts = append(opts, nrp.WithIncludeSelf(*includeSelf))
		}
		opts = append(opts, extra...)
		return nrp.LoadIndex(f, opts...)
	}
	backend, err := nrp.ParseBackend(backendName)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(embPath)
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
		nrp.WithShards(shards),
	}
	if includeSelf != nil {
		opts = append(opts, nrp.WithIncludeSelf(*includeSelf))
	}
	if rerank > 0 {
		opts = append(opts, nrp.WithRerank(rerank))
	}
	opts = append(opts, extra...)
	return nrp.BuildIndex(emb, opts...)
}

func runTopK(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("nrp topk", flag.ContinueOnError)
	var (
		embPath     = fs.String("embedding", "", "embedding file written by an embed run")
		indexPath   = fs.String("index", "", "index snapshot written by `nrp index` (alternative to -embedding)")
		source      = fs.Int("source", -1, "query source node id (required)")
		k           = fs.Int("k", 10, "number of neighbors to return")
		backendName = fs.String("backend", "exact", "query backend: exact, quantized, pruned or hnsw (with -embedding)")
		shards      = fs.Int("shards", 0, "scan shards (0 = all cores)")
		rerank      = fs.Int("rerank", 0, "quantized shortlist multiplier (0 = default)")
		includeSelf = fs.Bool("include-self", false, "admit the source node as a result")
		efSearch    = fs.Int("ef-search", 0, "hnsw beam width (serving knob; overrides a snapshot's stored value)")
		seedRows    = fs.Int("hnsw-seed-rows", 0, "hnsw top-norm rows seeding each beam (serving knob; 0 = 4*ef-search)")
		hnswQuant   = fs.Bool("hnsw-quant", false, "hnsw: score in-graph with the int8 kernel, rerank exactly (build-time; -embedding only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *source < 0 {
		fs.Usage()
		return fmt.Errorf("-source is required")
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var selfOverride *bool
	if set["include-self"] {
		selfOverride = includeSelf
	}
	// Only explicitly set HNSW flags become options, so the library can
	// loudly reject combinations that make no sense (an HNSW knob on a
	// scan backend, a build-time parameter against a snapshot).
	var extra []nrp.IndexOption
	if set["ef-search"] {
		extra = append(extra, nrp.WithEfSearch(*efSearch))
	}
	if set["hnsw-seed-rows"] {
		extra = append(extra, nrp.WithHNSWSeedRows(*seedRows))
	}
	if set["hnsw-quant"] {
		extra = append(extra, nrp.WithHNSWQuantized(*hnswQuant))
	}
	ix, err := loadSearcher(*embPath, *indexPath, *backendName, set["backend"], *shards, *rerank, selfOverride, extra...)
	if err != nil {
		return err
	}

	start := time.Now()
	results, err := ix.TopKMany(ctx, []int{*source}, *k)
	if err != nil {
		return err
	}
	res := results[0]
	fmt.Fprintf(os.Stderr, "top-%d of node %d over %d nodes in %v (scanned %d, pruned %d, reranked %d)\n",
		len(res.Neighbors), *source, ix.N(), time.Since(start).Round(time.Microsecond),
		res.Stats.Scanned, res.Stats.Pruned, res.Stats.Reranked)
	for rank, nb := range res.Neighbors {
		fmt.Printf("%-4d %-10d %s\n", rank+1, nb.Node, strconv.FormatFloat(nb.Score, 'g', 6, 64))
	}
	return nil
}

// readEdgePairs parses an edge list in the loaders' own line grammar
// (graph.ParseEdgeLine: "u v" per line, '#'/'%' comments) into raw id
// pairs, without building a graph — update batches may legitimately
// reference edges absent from any snapshot.
func readEdgePairs(path string) ([][2]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pairs [][2]int
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), graph.MaxLineLen)
	for line := 1; sc.Scan(); line++ {
		u, v, ok, err := graph.ParseEdgeLine(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if ok {
			pairs = append(pairs, [2]int{int(u), int(v)})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return pairs, nil
}

// postJSON posts body to url and decodes the JSON response into out,
// surfacing non-2xx statuses with the server's error message.
func postJSON(ctx context.Context, client *http.Client, url string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s (status %d)", url, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(payload, out)
}

// runUpdate streams edge updates to a live nrpserve instance in batches,
// then optionally triggers a refresh so the serving index absorbs them.
func runUpdate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("nrp update", flag.ContinueOnError)
	var (
		server     = fs.String("server", "", "base URL of a live nrpserve instance (required)")
		insertPath = fs.String("insert", "", "edge-list file of edges to insert")
		removePath = fs.String("remove", "", "edge-list file of edges to remove")
		refresh    = fs.Bool("refresh", true, "trigger a refresh after applying the updates")
		batch      = fs.Int("batch", 1024, "updates per request (server's -max-batch caps this)")
		timeout    = fs.Duration("timeout", time.Minute, "per-request timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" {
		fs.Usage()
		return fmt.Errorf("-server is required")
	}
	if *insertPath == "" && *removePath == "" {
		fs.Usage()
		return fmt.Errorf("at least one of -insert and -remove is required")
	}
	if *batch <= 0 {
		return fmt.Errorf("-batch must be positive, got %d", *batch)
	}
	base := strings.TrimRight(*server, "/")
	client := &http.Client{Timeout: *timeout}

	var inserts, removes [][2]int
	var err error
	if *insertPath != "" {
		if inserts, err = readEdgePairs(*insertPath); err != nil {
			return err
		}
	}
	if *removePath != "" {
		if removes, err = readEdgePairs(*removePath); err != nil {
			return err
		}
	}

	applied, pending := 0, 0
	send := func(ins, rem [][2]int) error {
		var resp struct {
			Applied int `json:"applied"`
			Pending int `json:"pending"`
		}
		req := map[string]any{}
		if len(ins) > 0 {
			req["insert"] = ins
		}
		if len(rem) > 0 {
			req["remove"] = rem
		}
		if err := postJSON(ctx, client, base+"/v1/update", req, &resp); err != nil {
			return err
		}
		applied += resp.Applied
		pending = resp.Pending
		return nil
	}
	for lo := 0; lo < len(inserts); lo += *batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := send(inserts[lo:min(lo+*batch, len(inserts))], nil); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(removes); lo += *batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := send(nil, removes[lo:min(lo+*batch, len(removes))]); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "sent %d insertions, %d removals: %d applied, %d pending\n",
		len(inserts), len(removes), applied, pending)

	if !*refresh {
		return nil
	}
	var rr struct {
		Mode         string `json:"mode"`
		TouchedNodes int    `json:"touched_nodes"`
		ElapsedUs    int64  `json:"elapsed_us"`
		Nodes        int    `json:"nodes"`
	}
	if err := postJSON(ctx, client, base+"/v1/refresh", struct{}{}, &rr); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "refreshed (%s): touched %d nodes in %v, serving %d nodes\n",
		rr.Mode, rr.TouchedNodes, time.Duration(rr.ElapsedUs)*time.Microsecond, rr.Nodes)
	return nil
}

// runIndexBuild builds a query index over a saved embedding and persists
// it as a snapshot for nrpserve (or later topk runs) to boot from.
func runIndexBuild(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("nrp index", flag.ContinueOnError)
	var (
		embPath     = fs.String("embedding", "", "embedding file written by an embed run (required)")
		output      = fs.String("output", "", "output index snapshot file (required)")
		backendName = fs.String("backend", "quantized", "index backend: exact, quantized, pruned or hnsw")
		shards      = fs.Int("shards", 0, "scan shards to record in the snapshot (0 = all cores at load time)")
		rerank      = fs.Int("rerank", 0, "quantized shortlist multiplier (0 = default)")
		includeSelf = fs.Bool("include-self", false, "admit query nodes as their own results")
		threads     = fs.Int("threads", 0, "worker threads for build-time preprocessing (0 = all cores)")
		hnswM       = fs.Int("hnsw-m", 0, "hnsw graph degree (0 = default)")
		hnswEfc     = fs.Int("hnsw-efc", 0, "hnsw construction beam width (0 = default)")
		hnswSeed    = fs.Uint64("hnsw-seed", 0, "hnsw level-assignment RNG seed (explicit 0 is honored)")
		hnswQuant   = fs.Bool("hnsw-quant", false, "hnsw: quantize the coarse stage, rerank exactly")
		efSearch    = fs.Int("ef-search", 0, "hnsw query beam width recorded in the snapshot (0 = default)")
		seedRows    = fs.Int("hnsw-seed-rows", 0, "hnsw top-norm seed rows recorded in the snapshot (0 = 4*ef-search)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *embPath == "" || *output == "" {
		fs.Usage()
		return fmt.Errorf("-embedding and -output are required")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	backend, err := nrp.ParseBackend(*backendName)
	if err != nil {
		return err
	}
	f, err := os.Open(*embPath)
	if err != nil {
		return err
	}
	emb, err := nrp.LoadEmbedding(f)
	f.Close()
	if err != nil {
		return err
	}

	start := time.Now()
	opts := []nrp.IndexOption{
		nrp.WithBackend(backend),
		nrp.WithShards(*shards),
		nrp.WithIncludeSelf(*includeSelf),
		nrp.WithThreads(*threads),
	}
	if *rerank > 0 {
		opts = append(opts, nrp.WithRerank(*rerank))
	}
	// Forward only explicitly set HNSW flags: BuildIndex validates them
	// against the backend, so -hnsw-m on a scan backend fails loudly
	// instead of being silently dropped. fs.Visit distinguishes an
	// explicit -hnsw-seed 0 (a deliberate, honored seed) from the default.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "hnsw-m":
			opts = append(opts, nrp.WithHNSWM(*hnswM))
		case "hnsw-efc":
			opts = append(opts, nrp.WithHNSWEfConstruction(*hnswEfc))
		case "hnsw-seed":
			opts = append(opts, nrp.WithHNSWSeed(*hnswSeed))
		case "hnsw-quant":
			opts = append(opts, nrp.WithHNSWQuantized(*hnswQuant))
		case "ef-search":
			opts = append(opts, nrp.WithEfSearch(*efSearch))
		case "hnsw-seed-rows":
			opts = append(opts, nrp.WithHNSWSeedRows(*seedRows))
		}
	})
	ix, err := nrp.BuildIndex(emb, opts...)
	if err != nil {
		return err
	}
	out, err := os.Create(*output)
	if err != nil {
		return err
	}
	if err := nrp.SaveIndex(out, ix); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "built %s index over %d nodes in %v -> %s\n",
		backend, ix.N(), time.Since(start).Round(time.Millisecond), *output)
	return nil
}
