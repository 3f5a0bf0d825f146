package fora

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/par"
	"github.com/nrp-embed/nrp/internal/splitmix"
)

// WalkIndex is the FORA+ acceleration structure: K precomputed
// α-terminating walk endpoints per node, stored flat as n×K int32. A
// query that needs walks from residual node v samples stored endpoints
// (with replacement) instead of traversing the graph, turning each walk
// into one array read. Endpoint -1 records a walk that halted at a
// dangling node without terminating (its mass is lost, matching the
// truncated Eq. (1) semantics used across the repo).
//
// The index is built against one graph snapshot. By default it never
// changes after build (safe for concurrent readers): queries against a
// graph with the same node count reuse it even after live edge updates,
// and the resampled endpoints then approximate the pre-update graph —
// the classic FORA+ staleness trade-off.
//
// EnableMaintenance upgrades that contract for live graphs. A maintained
// index tracks per-node staleness: Invalidate marks nodes whose out-edges
// changed, queries fall back to simulating walks for stale nodes (always
// correct on the current snapshot, just slower), and Repair / the
// engine's lazy post-query repair re-walk stale rows against the current
// graph and return them to the fast path. Walks that merely pass
// *through* a changed node from an unchanged start stay cached — that
// residual staleness is second-order in the update size and bounded by
// the (ε, δ) guarantee slack (asserted in the maintenance tests).
type WalkIndex struct {
	n     int
	k     int
	alpha float64
	seed  int64
	ends  []int32
	maint *walkMaintenance
}

// walkMaintenance is the mutable state of a maintained index. Writers
// (Invalidate, Repair) serialize on mu and are the only mutators of ends;
// readers never block: they atomically load the per-node state word and
// either use the cached row (fresh) or simulate the walk (stale). Row
// slots are written and read with atomic int32 ops while maintenance is
// on, so a reader racing a repair observes either the old or the new
// endpoint — both are valid walk samples.
type walkMaintenance struct {
	mu    sync.Mutex
	state []atomic.Int32 // per node: 0 = fresh, 1 = stale
	queue []int32        // stale nodes awaiting repair (guarded by mu)

	hits        atomic.Int64 // endpoint served from the cached row
	staleWalks  atomic.Int64 // endpoint simulated because the node was stale
	invalidated atomic.Int64 // nodes marked stale by Invalidate
	repaired    atomic.Int64 // nodes re-walked back to fresh
}

// BuildWalkIndex simulates k α-terminating walks from every node of g on
// the pool and records their endpoints. Each node's walks use an RNG
// stream derived only from (seed, node), so the built index is
// bit-identical for any pool size. Cost is O(n·k/α) expected steps.
func BuildWalkIndex(ctx context.Context, g *graph.Graph, pool *par.Pool, alpha float64, k int, seed int64) (*WalkIndex, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("fora: walks per node must be positive, got %d", k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	wi := &WalkIndex{
		n:     g.N,
		k:     k,
		alpha: alpha,
		seed:  seed,
		ends:  make([]int32, g.N*k),
	}
	var canceled atomic.Bool
	pool.For(g.N, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			if v%4096 == 0 && ctx.Err() != nil {
				canceled.Store(true)
				return
			}
			rng := splitmix.New(splitmix.Mix64(uint64(seed), uint64(v)))
			row := wi.ends[v*k : (v+1)*k]
			for i := range row {
				row[i] = walkEnd(g, int32(v), alpha, &rng)
			}
		}
	})
	if canceled.Load() {
		return nil, ctx.Err()
	}
	return wi, nil
}

// WalkIndexFromRaw wraps endpoints loaded from a snapshot, validating
// shape and range (len(ends) == n·k, each endpoint in [-1, n)).
func WalkIndexFromRaw(n int, alpha float64, k int, seed int64, ends []int32) (*WalkIndex, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	if n < 0 || k < 1 {
		return nil, fmt.Errorf("fora: invalid walk index shape n=%d k=%d", n, k)
	}
	if len(ends) != n*k {
		return nil, fmt.Errorf("fora: walk index has %d endpoints, want n·k = %d", len(ends), n*k)
	}
	for _, t := range ends {
		if t < -1 || int(t) >= n {
			return nil, fmt.Errorf("fora: walk endpoint %d outside [-1,%d)", t, n)
		}
	}
	return &WalkIndex{n: n, k: k, alpha: alpha, seed: seed, ends: ends}, nil
}

// Nodes reports the node count the index was built for.
func (wi *WalkIndex) Nodes() int { return wi.n }

// WalksPerNode reports K, the stored walks per node.
func (wi *WalkIndex) WalksPerNode() int { return wi.k }

// Alpha reports the termination probability the walks were run with.
func (wi *WalkIndex) Alpha() float64 { return wi.alpha }

// Seed reports the RNG seed the index was built with.
func (wi *WalkIndex) Seed() int64 { return wi.seed }

// Raw exposes the flat n×K endpoint array for snapshot serialization.
// Callers must not mutate it.
func (wi *WalkIndex) Raw() []int32 { return wi.ends }

// EnableMaintenance switches the index into maintained mode, allocating
// the per-node staleness state and copying the endpoint array onto the
// heap (snapshot-loaded indexes may wrap a read-only mmap, which Repair
// could not write through). Idempotent. Call it during setup, before the
// index is shared with concurrent readers — the mode switch itself is not
// synchronized.
func (wi *WalkIndex) EnableMaintenance() {
	if wi.maint != nil {
		return
	}
	ends := make([]int32, len(wi.ends))
	copy(ends, wi.ends)
	wi.ends = ends
	wi.maint = &walkMaintenance{state: make([]atomic.Int32, wi.n)}
}

// Maintained reports whether EnableMaintenance has been called.
func (wi *WalkIndex) Maintained() bool { return wi.maint != nil }

// Invalidate marks the given nodes stale: until repaired, walks starting
// at them are simulated on the query's graph snapshot instead of served
// from the cached rows. Out-of-range and already-stale nodes are skipped.
// Returns the number of nodes newly marked. No-op (returning 0) unless
// maintenance is enabled. Safe for concurrent use with queries and
// Repair.
func (wi *WalkIndex) Invalidate(nodes []int32) int {
	m := wi.maint
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	marked := 0
	for _, v := range nodes {
		if v < 0 || int(v) >= wi.n {
			continue
		}
		if m.state[v].CompareAndSwap(0, 1) {
			m.queue = append(m.queue, v)
			marked++
		}
	}
	m.invalidated.Add(int64(marked))
	return marked
}

// Repair re-walks up to maxNodes stale nodes (0 = all pending) against g
// and returns them to the fast path, using the same per-node RNG streams
// as the original build so a fully repaired index matches a fresh
// BuildWalkIndex on g. Returns the number of nodes repaired. No-op unless
// maintenance is enabled or if g's node count does not match. Safe for
// concurrent use with queries.
func (wi *WalkIndex) Repair(g *graph.Graph, maxNodes int) int {
	m := wi.maint
	if m == nil || g.N != wi.n {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return wi.repairLocked(g, maxNodes)
}

// tryRepair is Repair without blocking: if another maintenance pass holds
// the lock it does nothing. The engine calls it after queries that hit
// stale nodes, so repair work rides on the query path without stacking up
// behind itself.
func (wi *WalkIndex) tryRepair(g *graph.Graph, maxNodes int) int {
	m := wi.maint
	if m == nil || g.N != wi.n {
		return 0
	}
	if !m.mu.TryLock() {
		return 0
	}
	defer m.mu.Unlock()
	return wi.repairLocked(g, maxNodes)
}

func (wi *WalkIndex) repairLocked(g *graph.Graph, maxNodes int) int {
	m := wi.maint
	todo := len(m.queue)
	if maxNodes > 0 && todo > maxNodes {
		todo = maxNodes
	}
	for i := 0; i < todo; i++ {
		v := m.queue[i]
		rng := splitmix.New(splitmix.Mix64(uint64(wi.seed), uint64(v)))
		base := int(v) * wi.k
		for j := 0; j < wi.k; j++ {
			atomic.StoreInt32(&wi.ends[base+j], walkEnd(g, v, wi.alpha, &rng))
		}
		m.state[v].Store(0)
	}
	m.queue = m.queue[:copy(m.queue, m.queue[todo:])]
	m.repaired.Add(int64(todo))
	return todo
}

// StalePending reports how many invalidated nodes currently await repair.
func (wi *WalkIndex) StalePending() int {
	m := wi.maint
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// WalkIndexCounters are the cumulative maintenance counters of a
// maintained index (all zero otherwise), exported on /metrics by serving.
type WalkIndexCounters struct {
	// Hits counts walk endpoints served from cached rows.
	Hits int64
	// StaleWalks counts walks simulated because their start was stale.
	StaleWalks int64
	// Invalidated counts nodes marked stale by Invalidate.
	Invalidated int64
	// Repaired counts nodes re-walked back to fresh.
	Repaired int64
}

// Counters returns a snapshot of the maintenance counters.
func (wi *WalkIndex) Counters() WalkIndexCounters {
	m := wi.maint
	if m == nil {
		return WalkIndexCounters{}
	}
	return WalkIndexCounters{
		Hits:        m.hits.Load(),
		StaleWalks:  m.staleWalks.Load(),
		Invalidated: m.invalidated.Load(),
		Repaired:    m.repaired.Load(),
	}
}

// addEndpointStats folds a query chunk's local hit/miss tallies into the
// counters (batched so the walk hot loop stays free of shared atomics).
func (wi *WalkIndex) addEndpointStats(hits, staleWalks int64) {
	m := wi.maint
	if m == nil {
		return
	}
	if hits > 0 {
		m.hits.Add(hits)
	}
	if staleWalks > 0 {
		m.staleWalks.Add(staleWalks)
	}
}

// endpoint resamples one stored walk endpoint of node v, reporting whether
// the cached row served it (false = v was stale and the walk was simulated
// on g). Callers batch the tallies via addEndpointStats.
func (wi *WalkIndex) endpoint(g *graph.Graph, v int32, rng *splitmix.RNG) (int32, bool) {
	base := int(v) * wi.k
	if m := wi.maint; m != nil {
		if m.state[v].Load() != 0 {
			return walkEnd(g, v, wi.alpha, rng), false
		}
		return atomic.LoadInt32(&wi.ends[base+rng.Intn(wi.k)]), true
	}
	return wi.ends[base+rng.Intn(wi.k)], true
}

// walkEnd runs one α-terminating walk from start and returns the node it
// terminates at, or -1 if it halts at a dangling node (mass lost).
func walkEnd(g *graph.Graph, start int32, alpha float64, rng *splitmix.RNG) int32 {
	cur := start
	for {
		if rng.Float64() < alpha {
			return cur
		}
		nbrs := g.OutNeighbors(int(cur))
		if len(nbrs) == 0 {
			return -1
		}
		cur = nbrs[rng.Intn(len(nbrs))]
	}
}
