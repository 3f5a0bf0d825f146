package nrp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// LiveIndex is a Searcher over a DynamicEmbedding whose backing index is
// atomically swapped on refresh — RCU semantics: every query captures the
// current index once at its start and runs against it to completion, so
// in-flight queries finish on the old index while new queries see the new
// one, with zero downtime and no locking on the query path.
//
//	dyn, _ := nrp.NewDynamicEmbedding(ctx, g, opt, nrp.DynamicConfig{})
//	live, _ := nrp.NewLiveIndex(dyn, nrp.WithBackend(nrp.BackendQuantized))
//	live.TopK(ctx, u, 10)                   // serves the current index
//	live.ApplyUpdates(ctx, updates)         // graph changes take effect...
//	live.Refresh(ctx)                       // ...here: rebuild + atomic swap
//
// ApplyUpdates and Refresh serialize behind a mutex; queries never block
// on them.
type LiveIndex struct {
	mu       sync.Mutex // serializes updates and refreshes, not queries
	dyn      *DynamicEmbedding
	opts     []IndexOption
	cur      atomic.Pointer[index]
	swaps    atomic.Uint64
	lastSwap atomic.Int64 // unix nanos of the latest index swap
}

// Interface check: LiveIndex serves queries like any static backend.
var _ Searcher = (*LiveIndex)(nil)

// NewLiveIndex builds the initial index over dyn's current embedding with
// the given options (backend, shards, rerank — as in BuildIndex) and
// returns the live wrapper. Every Refresh rebuilds with the same options.
func NewLiveIndex(dyn *DynamicEmbedding, opts ...IndexOption) (*LiveIndex, error) {
	ix, err := buildIndex(dyn.Embedding(), opts)
	if err != nil {
		return nil, err
	}
	li := &LiveIndex{dyn: dyn, opts: opts}
	li.cur.Store(ix)
	li.lastSwap.Store(time.Now().UnixNano())
	return li, nil
}

// Swaps reports how many times the backing index has been rebuilt and
// swapped in by Refresh since construction.
func (li *LiveIndex) Swaps() uint64 { return li.swaps.Load() }

// LastSwap reports when the current backing index was installed (the
// construction time until the first refresh swap). Observability uses
// this to derive refresh lag — how stale the serving index is.
func (li *LiveIndex) LastSwap() time.Time {
	return time.Unix(0, li.lastSwap.Load())
}

// Searcher returns the current backing index. The returned value stays
// valid (and immutable) after subsequent swaps; callers wanting the RCU
// guarantee for a multi-call sequence should capture it once.
func (li *LiveIndex) Searcher() Searcher { return li.cur.Load() }

// Dynamic returns the maintained embedding.
func (li *LiveIndex) Dynamic() *DynamicEmbedding { return li.dyn }

// Pending reports the number of edge updates applied since the index was
// last refreshed.
func (li *LiveIndex) Pending() int { return li.dyn.Pending() }

// Backend reports the backend of the current backing index.
func (li *LiveIndex) Backend() Backend { return li.cur.Load().cfg.backend }

// ApplyUpdates applies a batch of edge updates to the underlying graph.
// The serving index is unaffected until the next Refresh.
func (li *LiveIndex) ApplyUpdates(ctx context.Context, ups []EdgeUpdate) (int, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.dyn.ApplyUpdates(ctx, ups)
}

// Refresh refreshes the embedding under its configured policy and, if the
// embedding changed, rebuilds the index and atomically swaps it in.
// Queries running during the swap finish on the old index.
func (li *LiveIndex) Refresh(ctx context.Context) (*RefreshStats, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	st, err := li.dyn.Refresh(ctx)
	if err != nil {
		return st, err
	}
	if st.Mode == RefreshedSkipped {
		return st, nil
	}
	ix, err := buildIndex(li.dyn.Embedding(), li.opts)
	if err != nil {
		return st, fmt.Errorf("nrp: rebuilding live index: %w", err)
	}
	li.cur.Store(ix)
	li.swaps.Add(1)
	li.lastSwap.Store(time.Now().UnixNano())
	return st, nil
}

// TopK answers against the current index (captured once per call).
func (li *LiveIndex) TopK(ctx context.Context, u, k int) ([]Neighbor, error) {
	return li.Searcher().TopK(ctx, u, k)
}

// TopKMany answers against the current index (captured once per call, so
// a whole batch sees one consistent snapshot).
func (li *LiveIndex) TopKMany(ctx context.Context, us []int, k int) ([]Result, error) {
	return li.Searcher().TopKMany(ctx, us, k)
}

// ScoreMany answers against the current index (captured once per call).
func (li *LiveIndex) ScoreMany(ctx context.Context, pairs []Pair) ([]float64, error) {
	return li.Searcher().ScoreMany(ctx, pairs)
}

// N reports the number of indexed nodes.
func (li *LiveIndex) N() int { return li.Searcher().N() }
