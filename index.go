package nrp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Neighbor is one result of a proximity query: a candidate node and its
// directed proximity score from the query source.
type Neighbor struct {
	Node  int
	Score float64
}

// Pair is a (source, target) query for ScoreMany.
type Pair struct {
	U, V int
}

// Sentinel errors returned by query validation, so callers (e.g. the
// nrpserve HTTP layer) can map malformed requests to client errors with
// errors.Is.
var (
	// ErrInvalidK is returned when a top-k query asks for k <= 0.
	ErrInvalidK = errors.New("k must be positive")
	// ErrNodeOutOfRange is returned when a query names a node id outside
	// [0, N).
	ErrNodeOutOfRange = errors.New("node id out of range")
	// ErrInvalidIndexOption is returned by BuildIndex/LoadIndex when an
	// option's value is out of range (negative shards, rerank < 1, a shard
	// count exceeding the index size, ...).
	ErrInvalidIndexOption = errors.New("invalid index option")
	// ErrIndexOptionConflict is returned by BuildIndex/LoadIndex when an
	// option is meaningless for the selected backend (WithRerank on an
	// exact scan, WithEfSearch on a non-HNSW backend, ...). Silently
	// ignoring such combinations would hide configuration mistakes.
	ErrIndexOptionConflict = errors.New("index option conflicts with backend")
)

// QueryStats instruments one top-k query: how much work the backend
// actually did, which is the observable difference between backends.
type QueryStats struct {
	// Scanned is the number of candidates scored (exactly or with the
	// quantized kernel).
	Scanned int
	// Pruned is the number of candidates skipped by an early-exit bound
	// without being scored (norm-pruned backend; 0 for exhaustive scans).
	Pruned int
	// Reranked is the number of shortlist candidates re-scored exactly
	// after the approximate pass (quantized backend; 0 otherwise).
	Reranked int
	// Elapsed is the query's wall time.
	Elapsed time.Duration
}

// Result is one query's answer in a TopKMany batch.
type Result struct {
	// Source is the query node the neighbors belong to.
	Source    int
	Neighbors []Neighbor
	Stats     QueryStats
}

// Searcher answers proximity queries over an embedding. BuildIndex
// constructs one backed by an exact, int8-quantized, or norm-pruned scan,
// or by a sublinear HNSW graph search; all backends are safe for
// concurrent use.
type Searcher interface {
	// TopK returns the k nodes v maximizing the directed proximity
	// Score(u, v), best first, fanning one query out across all shards.
	TopK(ctx context.Context, u, k int) ([]Neighbor, error)
	// TopKMany answers a batch of top-k queries and reports per-query
	// work stats. The result is aligned with us. On the exhaustive
	// backends (exact, quantized) the batch runs a few queries at a time,
	// each step fanned out over the row shards like a TopK — so a
	// one-source batch uses every shard, and Stats.Elapsed is the wall
	// time of the step a query shared. On the sublinear backends (pruned,
	// HNSW) the batch is parallelized across the queries, each scanning
	// its shards sequentially.
	TopKMany(ctx context.Context, us []int, k int) ([]Result, error)
	// ScoreMany scores a batch of (u, v) pairs exactly.
	ScoreMany(ctx context.Context, pairs []Pair) ([]float64, error)
	// N reports the number of indexed nodes.
	N() int
}

// index is the one static Searcher: an embedding, the resolved
// configuration, and the backend's kernel. Everything every backend does
// the same way — query validation, clamping k to the candidates on offer,
// timing, batching, exact pair scoring, the snapshot header and embedding
// I/O — is written once against this type; a kernel holds only what its
// backend does differently.
type index struct {
	emb  *Embedding
	cfg  indexConfig
	kern kernel
}

// kernel is the per-backend seam. Adding a backend is one file with a
// kernel implementation, its build and decode functions, and a row in
// the backends table.
type kernel interface {
	// bind derives whatever state depends on the resolved serving options
	// (the shard slice, the HNSW seed rows). It runs once, after build and
	// after a snapshot decode, before the first query.
	bind(emb *Embedding, cfg *indexConfig) error
	// search answers one query that is already validated, with k clamped
	// to [1, candidates on offer]. Dispatch happens here, once per query;
	// the candidate loop inside calls its scoring kernel directly. When
	// parallel, a scan backend may fan its shards out across goroutines.
	// TopKMany passes false only on a backend that is not exhaustive.
	search(ctx context.Context, ix *index, u, k int, parallel bool) ([]Neighbor, QueryStats, error)
	// snapshotBackend names the backend an NRPX header declares for the
	// payload writePayload emits after the embedding.
	snapshotBackend() Backend
	writePayload(bw *bufio.Writer) error
}

// tileKernel is the batch seam an exhaustive kernel may add: searchTile
// answers up to scanTile validated queries (k clamped like search's) in
// one pass over the candidate rows, fanned out over the row shards, and
// stores each answer through its query's res.
type tileKernel interface {
	searchTile(ctx context.Context, ix *index, qs []tileQuery) error
}

// tileQuery is one query of a tile and where its answer goes.
type tileQuery struct {
	u, k int
	res  *Result
}

// scanTile is how many queries of a batch an exhaustive backend answers
// per fork-join over its row shards. Wider tiles amortize one pass over
// Y across more queries; narrower ones keep the parts short, and the
// scheduler only reaches the network poller between parts. 4 measured
// best of 1, 4 and 8 on serve_scan (docs/ARCHITECTURE.md has the table).
const scanTile = 4

// backends is indexed by Backend. build runs the backend's build-time
// preprocessing (it may write resolved defaults back into cfg); decode
// reads the payload build's kernel would have written. decode is nil for
// HNSW, which no header names: its graph rides in a trailing section
// behind an exact or quantized base (see readHNSWSection).
//
// exhaustive marks the backends whose every query scores every candidate
// row: hundreds of microseconds of equal, divisible work. TopKMany runs
// their batches tile after tile with the row shards in parallel; a
// sublinear backend's query is tens of microseconds that stop early at
// a data-dependent row, so its batches stay parallel across queries.
var backends = [...]struct {
	build      func(emb *Embedding, cfg *indexConfig) kernel
	decode     func(br *bufio.Reader, emb *Embedding) (kernel, error)
	exhaustive bool
}{
	BackendExact:     {buildExact, decodeExact, true},
	BackendQuantized: {buildQuant, decodeQuant, true},
	BackendPruned:    {buildPruned, decodePruned, false},
	BackendHNSW:      {buildHNSW, nil, false},
}

// BuildIndex constructs a query index over emb with the selected backend:
//
//	s, err := nrp.BuildIndex(emb, nrp.WithBackend(nrp.BackendQuantized), nrp.WithShards(8))
//
// The returned Searcher is immutable and safe for concurrent use; the
// embedding must not be mutated while queries run. Build-time
// preprocessing (quantization, norm sorting) happens here once, and can
// be persisted with SaveIndex so a server boots without redoing it.
func BuildIndex(emb *Embedding, opts ...IndexOption) (Searcher, error) {
	ix, err := buildIndex(emb, opts)
	if err != nil {
		return nil, err // not ix: a nil *index in a Searcher is not nil
	}
	return ix, nil
}

func buildIndex(emb *Embedding, opts []IndexOption) (*index, error) {
	ix := &index{emb: emb, cfg: indexConfig{backend: BackendExact, rerank: defaultRerank}}
	ix.cfg.apply(opts)
	if err := ix.cfg.resolve(emb.N()); err != nil {
		return nil, err
	}
	ix.kern = backends[ix.cfg.backend].build(emb, &ix.cfg)
	if err := ix.kern.bind(emb, &ix.cfg); err != nil {
		return nil, err
	}
	return ix, nil
}

// N reports the number of indexed nodes.
func (ix *index) N() int { return ix.emb.N() }

// Backend reports the backend the index was built with.
func (ix *index) Backend() Backend { return ix.cfg.backend }

// TopK returns the k nodes with the highest directed proximity from u,
// sorted by decreasing score (ties broken by ascending node id, so results
// are deterministic). k is clamped to the number of eligible candidates.
func (ix *index) TopK(ctx context.Context, u, k int) ([]Neighbor, error) {
	nbrs, _, err := ix.topkOne(ctx, u, k, true)
	return nbrs, err
}

// topkOne runs one query: the preamble every backend shares, then the
// kernel. When parallel, each shard is scanned by its own goroutine;
// otherwise shards are scanned inline (TopKMany on the sublinear
// backends, which parallelizes across queries instead).
func (ix *index) topkOne(ctx context.Context, u, k int, parallel bool) ([]Neighbor, QueryStats, error) {
	start := time.Now()
	n := ix.emb.N()
	if u < 0 || u >= n {
		return nil, QueryStats{}, fmt.Errorf("nrp: TopK source %d out of range [0,%d): %w", u, n, ErrNodeOutOfRange)
	}
	if k <= 0 {
		return nil, QueryStats{}, fmt.Errorf("nrp: TopK k=%d: %w", k, ErrInvalidK)
	}
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, err
	}
	if avail := ix.cfg.availCandidates(n, u); k > avail {
		k = avail
	}
	if k <= 0 {
		return nil, QueryStats{}, nil
	}
	nbrs, stats, err := ix.kern.search(ctx, ix, u, k, parallel)
	stats.Elapsed = time.Since(start)
	return nbrs, stats, err
}

// TopKMany validates a batch of sources up front, then answers it the
// way the backend's row of the backends table says.
func (ix *index) TopKMany(ctx context.Context, us []int, k int) ([]Result, error) {
	n := ix.emb.N()
	if k <= 0 {
		return nil, fmt.Errorf("nrp: TopKMany k=%d: %w", k, ErrInvalidK)
	}
	for i, u := range us {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("nrp: TopKMany query %d source %d out of range [0,%d): %w", i, u, n, ErrNodeOutOfRange)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]Result, len(us))
	for i, u := range us {
		out[i].Source = u
	}
	var err error
	if backends[ix.cfg.backend].exhaustive {
		err = ix.topkManyByRows(ctx, k, out)
	} else {
		err = ix.topkManyByQueries(ctx, k, out)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// topkManyByRows answers out's sources tile after tile, each tile one
// fork-join over the row shards: through the kernel's searchTile when it
// has one, else query by query through the parallel search.
func (ix *index) topkManyByRows(ctx context.Context, k int, out []Result) error {
	tk, tiled := ix.kern.(tileKernel)
	if !tiled {
		for i := range out {
			var err error
			if out[i].Neighbors, out[i].Stats, err = ix.topkOne(ctx, out[i].Source, k, true); err != nil {
				return err
			}
		}
		return nil
	}
	n := ix.emb.N()
	var tile [scanTile]tileQuery
	for len(out) > 0 {
		start := time.Now()
		if err := ctx.Err(); err != nil {
			return err
		}
		w := min(scanTile, len(out))
		qs := tile[:0]
		for i := range out[:w] {
			// A slice that holds nothing but the source has no candidate
			// on offer: that query's answer stays empty.
			if kq := min(k, ix.cfg.availCandidates(n, out[i].Source)); kq > 0 {
				qs = append(qs, tileQuery{u: out[i].Source, k: kq, res: &out[i]})
			}
		}
		if len(qs) > 0 {
			if err := tk.searchTile(ctx, ix, qs); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		for _, q := range qs {
			q.res.Stats.Elapsed = elapsed
		}
		out = out[w:]
	}
	return nil
}

// topkManyByQueries answers out's sources with up to cfg.shards
// concurrent queries, each scanning its shards inline.
func (ix *index) topkManyByQueries(ctx context.Context, k int, out []Result) error {
	workers := clampParts(ix.cfg.shards, len(out))
	errs := make([]error, len(out))
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i].Neighbors, out[i].Stats, errs[i] = ix.topkOne(ctx, out[i].Source, k, false)
			}
		}()
	}
	for i := range out {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ScoreMany scores a batch of directed pairs with the float64 kernel,
// parallelized across the index's shards; the result is aligned with
// pairs. Every backend answers point scores exactly — only top-k
// retrieval is approximated.
func (ix *index) ScoreMany(ctx context.Context, pairs []Pair) ([]float64, error) {
	emb, workers := ix.emb, ix.cfg.shards
	n := emb.N()
	for i, p := range pairs {
		if p.U < 0 || p.U >= n || p.V < 0 || p.V >= n {
			return nil, fmt.Errorf("nrp: ScoreMany pair %d (%d,%d) out of range [0,%d): %w", i, p.U, p.V, n, ErrNodeOutOfRange)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]float64, len(pairs))
	workers = clampParts(workers, len(pairs))
	errs := make([]error, workers)
	scoreChunk := func(w int) {
		lo, hi := contiguousSpan(len(pairs), w, workers)
		for i := lo; i < hi; i++ {
			if (i-lo)%ctxCheckStride == 0 {
				if errs[w] = ctx.Err(); errs[w] != nil {
					return
				}
			}
			out[i] = emb.Score(pairs[i].U, pairs[i].V)
		}
	}
	if workers == 1 {
		scoreChunk(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				scoreChunk(w)
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
