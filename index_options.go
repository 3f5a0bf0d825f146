package nrp

import (
	"fmt"
	"runtime"
)

// Backend selects the scan strategy behind a Searcher built by BuildIndex.
type Backend int

const (
	// BackendExact scans every candidate with the float64 kernel. The
	// reference backend: always exact, no build-time preprocessing.
	BackendExact Backend = iota
	// BackendQuantized scans int8-quantized backward embeddings with a
	// fused int32 kernel (8× less memory traffic), then re-scores the
	// top rerank·k shortlist exactly. Approximate with high recall.
	BackendQuantized
	// BackendPruned scans candidates in decreasing ‖Y_v‖ order and stops
	// as soon as the Cauchy–Schwarz bound ‖X_u‖·‖Y_v‖ cannot beat the
	// current k-th score. Exact results; fast when norms are skewed.
	BackendPruned
	// BackendHNSW answers queries with a greedy beam search over a
	// hierarchical navigable small-world graph built over the backward
	// embedding rows — sublinear per-query work (O(efSearch·M) score
	// evaluations instead of n). Approximate; recall is tuned with
	// WithEfSearch. Optionally evaluates in-graph scores with the int8
	// quantized kernel and reranks the top rerank·k exactly
	// (WithHNSWQuantized).
	BackendHNSW
)

// String names the backend as accepted by ParseBackend and the CLI flags.
func (b Backend) String() string {
	switch b {
	case BackendExact:
		return "exact"
	case BackendQuantized:
		return "quantized"
	case BackendPruned:
		return "pruned"
	case BackendHNSW:
		return "hnsw"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// ParseBackend resolves a backend name ("exact", "quantized", "pruned").
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "exact":
		return BackendExact, nil
	case "quantized":
		return BackendQuantized, nil
	case "pruned":
		return BackendPruned, nil
	case "hnsw":
		return BackendHNSW, nil
	}
	return 0, fmt.Errorf("nrp: unknown backend %q (want exact, quantized, pruned or hnsw)", s)
}

// indexConfig is the resolved build configuration shared by all backends.
type indexConfig struct {
	backend Backend
	shards  int
	// shardsExplicit records whether shards was chosen by the caller
	// (WithShards(n>0)) rather than defaulted to the host's cores, so
	// snapshots only persist deliberate choices — a defaulted count is
	// re-derived on the serving host at load time.
	shardsExplicit bool
	rerank         int
	// rerankExplicit records a caller-passed WithRerank, which only makes
	// sense on backends with an approximate scoring pass (quantized, or
	// HNSW with the quantized coarse stage) — elsewhere it is a
	// configuration mistake and rejected.
	rerankExplicit bool
	includeSelf    bool
	// buildThreads bounds build-time preprocessing parallelism
	// (quantization, norm computation, HNSW construction; 0 = GOMAXPROCS).
	// Set with WithThreads; never persisted in snapshots.
	buildThreads int
	// HNSW backend parameters; zero values select internal/ann defaults.
	// The explicit flags drive conflict validation (HNSW options on a scan
	// backend are rejected) and the snapshot override rules (efSearch is a
	// serving knob overridable at load; the rest are build-time and baked
	// into the persisted graph).
	hnswM          int
	hnswEfCons     int
	efSearch       int
	hnswSeed       uint64
	hnswQuant      bool
	hnswMExplicit  bool
	hnswEfConsExpl bool
	efSearchExpl   bool
	hnswSeedExpl   bool
	hnswQuantExpl  bool
	// hnswSeedRows is the number of top-norm rows seeding each query's
	// layer-0 beam (a serving knob like efSearch; 0 defaults to 4·ef,
	// WithHNSWSeedRows(0) explicitly disables seeding).
	hnswSeedRows     int
	hnswSeedRowsExpl bool
	// shardIdx/shardCnt restrict the candidate set to slice shardIdx of a
	// shardCnt-way contiguous partition of [0, n) — the distributed-serving
	// seam (WithShardSlice). The slice resolves to concrete bounds only
	// once n is known, so the same option works for BuildIndex and for
	// LoadIndex before the snapshot header is read. Never persisted: a
	// snapshot always holds the full index, the slice is a serving choice.
	shardIdx, shardCnt int
	sliceSet           bool
}

// IndexOption configures BuildIndex (and LoadIndex overrides). It is an
// interface so options can be shared across subsystems: WithThreads is
// accepted both here and by the embedding pipeline's ctx entry points.
type IndexOption interface {
	applyIndex(*indexConfig)
}

// indexOptionFunc adapts a plain function to IndexOption.
type indexOptionFunc func(*indexConfig)

func (f indexOptionFunc) applyIndex(c *indexConfig) { f(c) }

// WithBackend selects the scan strategy; BackendExact is the default.
func WithBackend(b Backend) IndexOption {
	return indexOptionFunc(func(c *indexConfig) { c.backend = b })
}

// WithShards partitions the candidate space into n shards, each scanned
// by its own goroutine with a private top-k heap merged at the end
// (0 = GOMAXPROCS, re-derived per host when a snapshot is loaded).
func WithShards(n int) IndexOption {
	return indexOptionFunc(func(c *indexConfig) { c.shards, c.shardsExplicit = n, n > 0 })
}

// WithRerank sets the approximate backends' shortlist multiplier: the top
// r·k approximately-scored candidates are re-scored exactly before the
// final top k is taken. Higher r buys recall with more exact dot
// products; the default is 4. Valid only for BackendQuantized and for
// BackendHNSW with the quantized coarse stage — passing it to an exact
// backend returns ErrIndexOptionConflict.
func WithRerank(r int) IndexOption {
	return indexOptionFunc(func(c *indexConfig) { c.rerank, c.rerankExplicit = r, true })
}

// WithEfSearch sets the HNSW query beam width: the search keeps the best
// ef candidates seen so far and stops when none of the frontier can
// improve them. Higher ef buys recall with proportionally more score
// evaluations. Valid only for BackendHNSW; it is a serving-time knob and
// may also be passed to LoadIndex to override the persisted value.
func WithEfSearch(ef int) IndexOption {
	return indexOptionFunc(func(c *indexConfig) { c.efSearch, c.efSearchExpl = ef, true })
}

// WithHNSWSeedRows sets how many of the highest-norm rows seed each HNSW
// query's layer-0 beam. Seeding exploits NRP's heavy-tailed norm profile:
// the seeds cover the hub rows every query shares (raising the beam's
// admission threshold before any edge is followed), so a much narrower
// beam recovers only the query-specific tail. The default is 4·efSearch;
// WithHNSWSeedRows(0) disables seeding and restores the pure hierarchical
// descent. Serving-time knob like WithEfSearch: valid only for
// BackendHNSW, overridable at LoadIndex.
func WithHNSWSeedRows(t int) IndexOption {
	return indexOptionFunc(func(c *indexConfig) { c.hnswSeedRows, c.hnswSeedRowsExpl = t, true })
}

// WithHNSWM sets the HNSW graph's out-degree budget M (layer 0 keeps 2M
// links). Build-time only; baked into snapshots.
func WithHNSWM(m int) IndexOption {
	return indexOptionFunc(func(c *indexConfig) { c.hnswM, c.hnswMExplicit = m, true })
}

// WithHNSWEfConstruction sets the beam width of build-time neighbor
// searches. Build-time only; baked into snapshots.
func WithHNSWEfConstruction(ef int) IndexOption {
	return indexOptionFunc(func(c *indexConfig) { c.hnswEfCons, c.hnswEfConsExpl = ef, true })
}

// WithHNSWSeed seeds the deterministic level assignment. Builds with the
// same embedding, config and seed are bit-identical regardless of thread
// count. Build-time only; baked into snapshots.
func WithHNSWSeed(seed uint64) IndexOption {
	return indexOptionFunc(func(c *indexConfig) { c.hnswSeed, c.hnswSeedExpl = seed, true })
}

// WithHNSWQuantized evaluates in-graph scores with the int8 quantized
// kernel instead of the float64 kernel, then re-scores the top rerank·k
// shortlist exactly (the quantized backend's contract). Cuts per-hop
// memory traffic 8×. Build-time only; baked into snapshots.
func WithHNSWQuantized(on bool) IndexOption {
	return indexOptionFunc(func(c *indexConfig) { c.hnswQuant, c.hnswQuantExpl = on, true })
}

// WithShardSlice restricts the candidate set to slice i of a count-way
// contiguous partition of the node space — the building block of
// distributed scatter-gather serving: a fleet of processes, each built
// (or loaded) with a distinct slice of the same embedding, together
// covers [0, n) exactly once, and a stateless router (cmd/nrprouter)
// merging their per-slice top-k answers reproduces the single-node
// result. Slice boundaries are ShardRange(n, i, count), the same range
// partition the in-process sharded scans use.
//
// Queries still accept any source node in [0, n) — only returned
// candidates are restricted — and ScoreMany stays global (the full
// embedding is always held). Valid for the scan backends (exact, pruned,
// quantized, whose results stay exact over the slice); BackendHNSW's
// graph traversal is global by construction, so combining it with a
// slice returns ErrIndexOptionConflict. A slice-restricted Searcher
// cannot be persisted with SaveIndex.
func WithShardSlice(i, count int) IndexOption {
	return indexOptionFunc(func(c *indexConfig) { c.shardIdx, c.shardCnt, c.sliceSet = i, count, true })
}

// ShardRange computes the half-open node range [lo, hi) that slice i of a
// count-way partition covers: the same contiguous range partition the
// sharded in-process scans use, lifted to process granularity so shard
// servers and the router agree on boundaries without coordination.
func ShardRange(n, i, count int) (lo, hi int) {
	return contiguousSpan(n, i, count)
}

// WithIncludeSelf admits the query node itself as a result; by default it
// is excluded, matching the link-prediction use of proximity scores.
func WithIncludeSelf(on bool) IndexOption {
	return indexOptionFunc(func(c *indexConfig) { c.includeSelf = on })
}

const defaultRerank = 4

// apply runs opts over c: over the defaults at BuildIndex, over the
// snapshot's stored configuration at LoadIndex.
func (c *indexConfig) apply(opts []IndexOption) {
	for _, o := range opts {
		if o != nil {
			o.applyIndex(c)
		}
	}
}

// resolve checks the applied option values, their compatibility with the
// backend and with the index size n, then derives the host-dependent
// shard count; it is shared by BuildIndex and LoadIndex.
func (c *indexConfig) resolve(n int) error {
	if c.backend < 0 || int(c.backend) >= len(backends) {
		return fmt.Errorf("nrp: unknown backend %d: %w", int(c.backend), ErrInvalidIndexOption)
	}
	if c.shards < 0 {
		return fmt.Errorf("nrp: shards must be non-negative, got %d: %w", c.shards, ErrInvalidIndexOption)
	}
	if c.rerank < 1 {
		return fmt.Errorf("nrp: rerank multiplier must be at least 1, got %d: %w", c.rerank, ErrInvalidIndexOption)
	}
	if c.hnswMExplicit && c.hnswM < 2 {
		return fmt.Errorf("nrp: HNSW M must be at least 2, got %d: %w", c.hnswM, ErrInvalidIndexOption)
	}
	if c.hnswEfConsExpl && c.hnswEfCons < 1 {
		return fmt.Errorf("nrp: HNSW efConstruction must be positive, got %d: %w", c.hnswEfCons, ErrInvalidIndexOption)
	}
	if c.efSearchExpl && c.efSearch < 1 {
		return fmt.Errorf("nrp: efSearch must be positive, got %d: %w", c.efSearch, ErrInvalidIndexOption)
	}
	if c.hnswSeedRowsExpl && c.hnswSeedRows < 0 {
		return fmt.Errorf("nrp: HNSW seed rows must be non-negative, got %d: %w", c.hnswSeedRows, ErrInvalidIndexOption)
	}
	if c.backend != BackendHNSW {
		switch {
		case c.efSearchExpl:
			return fmt.Errorf("nrp: WithEfSearch on %v backend: %w", c.backend, ErrIndexOptionConflict)
		case c.hnswSeedRowsExpl:
			return fmt.Errorf("nrp: WithHNSWSeedRows on %v backend: %w", c.backend, ErrIndexOptionConflict)
		case c.hnswMExplicit, c.hnswEfConsExpl, c.hnswSeedExpl, c.hnswQuantExpl:
			return fmt.Errorf("nrp: HNSW build options on %v backend: %w", c.backend, ErrIndexOptionConflict)
		}
	}
	if c.rerankExplicit {
		switch {
		case c.backend == BackendExact, c.backend == BackendPruned:
			return fmt.Errorf("nrp: WithRerank on %v backend (results are already exact): %w", c.backend, ErrIndexOptionConflict)
		case c.backend == BackendHNSW && !c.hnswQuant:
			return fmt.Errorf("nrp: WithRerank on hnsw backend without WithHNSWQuantized (scores are already exact): %w", ErrIndexOptionConflict)
		}
	}
	if c.sliceSet {
		if c.shardCnt < 1 || c.shardIdx < 0 || c.shardIdx >= c.shardCnt {
			return fmt.Errorf("nrp: shard slice %d/%d out of range: %w", c.shardIdx, c.shardCnt, ErrInvalidIndexOption)
		}
		if c.backend == BackendHNSW {
			return fmt.Errorf("nrp: WithShardSlice on hnsw backend (graph traversal is global): %w", ErrIndexOptionConflict)
		}
	}
	// An explicit shard count larger than n means most shards scan
	// nothing — a configuration mistake, not a tuning choice. Defaulted
	// (host-derived) counts are clamped instead.
	if c.shardsExplicit && c.shards > n {
		return fmt.Errorf("nrp: %d shards exceed index size %d: %w", c.shards, n, ErrInvalidIndexOption)
	}
	if c.sliceSet && c.shardCnt > n {
		return fmt.Errorf("nrp: %d shard slices exceed index size %d: %w", c.shardCnt, n, ErrInvalidIndexOption)
	}
	if c.shards == 0 {
		c.shards = runtime.GOMAXPROCS(0)
	}
	return nil
}

// candRange resolves the candidate node range a query may return: the
// configured shard slice, or all of [0, n) on an unrestricted index.
func (c *indexConfig) candRange(n int) (lo, hi int) {
	if !c.sliceSet {
		return 0, n
	}
	return contiguousSpan(n, c.shardIdx, c.shardCnt)
}

// availCandidates counts the results a query for source u can maximally
// return: the candidate range, minus the source itself when it lies
// inside the range and self-results are excluded.
func (c *indexConfig) availCandidates(n, u int) int {
	lo, hi := c.candRange(n)
	avail := hi - lo
	if !c.includeSelf && u >= lo && u < hi {
		avail--
	}
	return avail
}
