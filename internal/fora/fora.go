// Package fora is the online seed-set PPR query engine: FORA-style
// two-phase estimation (Wang et al., SIGMOD 2017; the state of the art
// for online single/multi-source PPR per the survey in PAPERS.md).
//
// A query runs forward local push (reusing ppr.Workspace) from the seed
// set down to an adaptively chosen residual threshold rmax, then finishes
// the remaining residual mass with ω Monte Carlo α-terminating walks
// whose start nodes are alias-sampled from the residual distribution.
// With rmax = ε·√(δ / ((2ε/3+2)·m·ln(2/p_f))) and
// ω = ⌈r_sum·(2ε/3+2)·ln(2/p_f) / (ε²·δ)⌉, every estimate π̂(t)
// satisfies |π̂(t) − π(t)| ≤ ε·π(t) for all t with π(t) ≥ δ, with
// probability at least 1 − p_f (standard Chernoff argument; sampling walk
// starts i.i.d. from r/r_sum keeps the same bound as FORA's deterministic
// ⌈r(v)·ω⌉ allocation). Walks parallelize on the internal/par pool with
// per-chunk splitmix64 streams, so results are deterministic for a fixed
// pool size. An optional precomputed walk index (FORA+, see WalkIndex)
// replaces walk simulation with endpoint resampling.
//
// Dangling nodes halt walks and absorb pushed mass without terminating
// anywhere — the truncated Eq. (1) semantics every PPR path in this repo
// shares, so estimates are comparable with ppr.MultiSource ground truth.
package fora

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/par"
	"github.com/nrp-embed/nrp/internal/ppr"
	"github.com/nrp-embed/nrp/internal/splitmix"
)

// Typed sentinels for parameter validation, re-exported at the public nrp
// API boundary and mapped to HTTP 400 by internal/serve.
var (
	ErrInvalidAlpha   = errors.New("fora: alpha must be in (0,1)")
	ErrInvalidEpsilon = errors.New("fora: epsilon must be positive")
	ErrEmptySeedSet   = errors.New("fora: seed set is empty")
)

const (
	// DefaultAlpha matches the α = 0.15 regime the paper's embedding
	// pipeline uses, so online queries and embeddings agree by default.
	DefaultAlpha = 0.15
	// DefaultEpsilon is the relative error bound ε; 0.5 is the FORA
	// paper's serving default.
	DefaultEpsilon = 0.5
	// maxWalksPerQuery caps ω so a pathological (ε, δ) choice degrades
	// into an error instead of an unbounded compute bill.
	maxWalksPerQuery = 1 << 27
	// lazyRepairBudget caps how many stale walk-index rows one query's
	// post-answer repair pass re-walks, bounding the latency tax any
	// single request pays for index maintenance.
	lazyRepairBudget = 2048
)

// Params are the engine-level estimation parameters. Zero values select
// defaults at validation time: Alpha 0.15, Epsilon 0.5, Delta 1/n,
// PFail 1/n, Seed 1.
type Params struct {
	// Alpha is the walk termination probability of Eq. (1).
	Alpha float64
	// Epsilon is the relative error bound ε of the (ε, δ) guarantee.
	Epsilon float64
	// Delta is the guarantee threshold δ: estimates of nodes with
	// π(t) ≥ δ are within ε relative error. Smaller δ → more walks.
	Delta float64
	// PFail is the per-query failure probability p_f of the guarantee.
	PFail float64
	// Seed seeds the walk RNG streams. Queries are deterministic for a
	// fixed (Seed, pool size); vary Seed for independent estimates.
	Seed int64
}

func (p Params) withDefaults(n int) (Params, error) {
	if n < 2 {
		n = 2
	}
	if p.Alpha == 0 {
		p.Alpha = DefaultAlpha
	}
	if p.Epsilon == 0 {
		p.Epsilon = DefaultEpsilon
	}
	if p.Delta == 0 {
		p.Delta = 1 / float64(n)
	}
	if p.PFail == 0 {
		p.PFail = 1 / float64(n)
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if err := checkAlpha(p.Alpha); err != nil {
		return p, err
	}
	if !(p.Epsilon > 0) || math.IsInf(p.Epsilon, 1) {
		return p, fmt.Errorf("%w: got %v", ErrInvalidEpsilon, p.Epsilon)
	}
	if !(p.Delta > 0 && p.Delta < 1) {
		return p, fmt.Errorf("fora: delta must be in (0,1), got %v", p.Delta)
	}
	if !(p.PFail > 0 && p.PFail < 1) {
		return p, fmt.Errorf("fora: failure probability must be in (0,1), got %v", p.PFail)
	}
	return p, nil
}

func checkAlpha(alpha float64) error {
	if !(alpha > 0 && alpha < 1) {
		return fmt.Errorf("%w: got %v", ErrInvalidAlpha, alpha)
	}
	return nil
}

// Query is one seed-set PPR request.
type Query struct {
	// Seeds is the non-empty seed set; duplicates are deduped, so the
	// estimated vector is π_S = (1/|S|)·Σ_{s∈S} π(s,·).
	Seeds []int32
	// K is the number of top results to return (clamped to n).
	K int
	// Alpha/Epsilon, when nonzero, override the engine defaults for this
	// query only.
	Alpha, Epsilon float64
	// Graph, when non-nil, is the graph snapshot to answer on — the live
	// RCU snapshot in serving — and must have the engine's node count.
	// Nil queries the graph the engine was built with.
	Graph *graph.Graph
}

// Score is one ranked result entry.
type Score struct {
	Node  int32
	Score float64
}

// Stats describes how a query was answered.
type Stats struct {
	// Rmax is the adaptive push threshold used.
	Rmax float64
	// Residual is r_sum, the mass left for the walk phase.
	Residual float64
	// Walks is ω, the number of walks run (0 if push converged fully).
	Walks int64
	// Pushed is the number of nodes touched by forward push.
	Pushed int
	// Candidates is the number of nodes with a nonzero estimate.
	Candidates int
	// UsedIndex reports whether the FORA+ walk index answered the walk
	// phase.
	UsedIndex bool
	// PushTime and WalkTime split the query latency by phase.
	PushTime, WalkTime time.Duration
}

// Result is a ranked answer: the top-K nodes by estimated π_S, descending
// (ties broken by ascending node id), plus query stats.
type Result struct {
	Scores []Score
	Stats  Stats
}

// Engine answers seed-set PPR queries over graphs with a fixed node
// count. It is safe for concurrent use; per-query scratch state lives in
// an internal sync.Pool so steady-state queries allocate O(k), not O(n).
type Engine struct {
	g         *graph.Graph
	pool      *par.Pool
	idx       *WalkIndex
	def       Params
	maxChunks int
	ws        sync.Pool
	wsBuilds  atomic.Int64
	walksRun  atomic.Int64
}

// NewEngine builds an engine over g. pool may be nil (serial); idx may be
// nil (walks are simulated on the graph) or a WalkIndex with matching
// node count and alpha. def's zero fields select package defaults.
func NewEngine(g *graph.Graph, pool *par.Pool, idx *WalkIndex, def Params) (*Engine, error) {
	def, err := def.withDefaults(g.N)
	if err != nil {
		return nil, err
	}
	if idx != nil && idx.Nodes() != g.N {
		return nil, fmt.Errorf("fora: walk index built for %d nodes, graph has %d", idx.Nodes(), g.N)
	}
	return &Engine{g: g, pool: pool, idx: idx, def: def, maxChunks: pool.Workers()}, nil
}

// Graph returns the graph the engine was built with.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Params returns the engine's resolved default parameters.
func (e *Engine) Params() Params { return e.def }

// Index returns the engine's walk index, nil if none.
func (e *Engine) Index() *WalkIndex { return e.idx }

// WorkspaceBuilds reports how many O(n) query workspaces have been
// constructed — observability for the sync.Pool reuse contract (a
// steady sequential caller should see this stay at 1).
func (e *Engine) WorkspaceBuilds() int64 { return e.wsBuilds.Load() }

// EngineCounters are the engine's cumulative work counters, exported on
// /metrics by serving.
type EngineCounters struct {
	// WorkspaceBuilds counts O(n) query-workspace constructions.
	WorkspaceBuilds int64
	// WalksRun counts Monte Carlo walks across all queries (index-served
	// and simulated alike).
	WalksRun int64
	// WalkIndex holds the walk-index maintenance counters (zero when no
	// index is attached or maintenance is off).
	WalkIndex WalkIndexCounters
	// WalkIndexStalePending is the current count of invalidated nodes
	// awaiting repair (a gauge, not a counter).
	WalkIndexStalePending int
}

// Counters returns a snapshot of the engine's work counters.
func (e *Engine) Counters() EngineCounters {
	c := EngineCounters{
		WorkspaceBuilds: e.wsBuilds.Load(),
		WalksRun:        e.walksRun.Load(),
	}
	if e.idx != nil {
		c.WalkIndex = e.idx.Counters()
		c.WalkIndexStalePending = e.idx.StalePending()
	}
	return c
}

// workspace is the per-query scratch state: the push workspace, the alias
// table over residuals, per-chunk walk-endpoint counters with their touch
// lists (so cleanup is O(touched), never O(n)), and top-k selection
// buffers.
type workspace struct {
	push    *ppr.Workspace
	alias   aliasTable
	starts  []int32
	weights []float64
	counts  [][]int32
	hits    [][]int32
	seen    []bool
	cand    []int32
	heap    []Score
}

func (e *Engine) getWS() *workspace {
	if v := e.ws.Get(); v != nil {
		return v.(*workspace)
	}
	e.wsBuilds.Add(1)
	n := e.g.N
	w := &workspace{
		push:   ppr.NewWorkspace(n),
		counts: make([][]int32, e.maxChunks),
		hits:   make([][]int32, e.maxChunks),
		seen:   make([]bool, n),
	}
	for i := range w.counts {
		w.counts[i] = make([]int32, n)
	}
	return w
}

func (e *Engine) putWS(w *workspace) { e.ws.Put(w) }

// Query answers q with the (ε, δ) relative-error guarantee described in
// the package comment. It returns ErrEmptySeedSet, ErrInvalidAlpha or
// ErrInvalidEpsilon (possibly wrapped) on invalid input.
func (e *Engine) Query(ctx context.Context, q Query) (*Result, error) {
	p := e.def
	if q.Alpha != 0 {
		p.Alpha = q.Alpha
	}
	if q.Epsilon != 0 {
		p.Epsilon = q.Epsilon
	}
	p, err := p.withDefaults(e.g.N)
	if err != nil {
		return nil, err
	}
	g := q.Graph
	if g == nil {
		g = e.g
	}
	if g.N != e.g.N {
		return nil, fmt.Errorf("fora: query graph has %d nodes, engine built for %d", g.N, e.g.N)
	}
	if len(q.Seeds) == 0 {
		return nil, ErrEmptySeedSet
	}
	for _, s := range q.Seeds {
		if s < 0 || int(s) >= g.N {
			return nil, fmt.Errorf("fora: seed %d outside [0,%d)", s, g.N)
		}
	}
	if q.K < 1 {
		return nil, fmt.Errorf("fora: k must be positive, got %d", q.K)
	}
	k := q.K
	if k > g.N {
		k = g.N
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	seeds := dedupeSeeds(q.Seeds)

	m := g.Arcs()
	if m == 0 {
		m = 1
	}
	// ω = r_sum·ωc/δ walks match push cost when rmax balances the two
	// phases; see package comment for the derivation.
	omegaC := (2*p.Epsilon/3 + 2) * math.Log(2/p.PFail) / (p.Epsilon * p.Epsilon)
	rmax := p.Epsilon * math.Sqrt(p.Delta/(omegaC*float64(m)))

	ws := e.getWS()
	defer e.putWS(ws)

	res := &Result{Stats: Stats{Rmax: rmax}}
	t0 := time.Now()
	rsum := ws.push.ForwardPushSeeds(g, seeds, p.Alpha, rmax)
	res.Stats.PushTime = time.Since(t0)
	res.Stats.Residual = rsum
	res.Stats.Pushed = len(ws.push.Touched())

	nc := 0
	if rsum > 0 {
		walks := int64(math.Ceil(rsum * omegaC / p.Delta))
		if walks > maxWalksPerQuery {
			return nil, fmt.Errorf("fora: query needs %d walks (epsilon/delta too demanding); relax epsilon or delta", walks)
		}
		res.Stats.Walks = walks
		t1 := time.Now()
		nc, err = e.runWalks(ctx, g, ws, p, walks)
		res.Stats.WalkTime = time.Since(t1)
		if err != nil {
			return nil, err
		}
	}

	res.Scores = e.selectTopK(ws, nc, rsum, res.Stats.Walks, k)
	res.Stats.Candidates = len(ws.cand)
	idx := e.usableIndex(g, p.Alpha)
	res.Stats.UsedIndex = idx != nil && rsum > 0
	cleanup(ws, nc)
	e.walksRun.Add(res.Stats.Walks)
	if idx != nil && idx.Maintained() {
		// Lazy maintenance: piggyback a bounded repair pass on the query
		// path so stale rows drain back to the fast path under load,
		// without a dedicated repair goroutine. Non-blocking — skipped
		// when another pass holds the maintenance lock.
		idx.tryRepair(g, lazyRepairBudget)
	}
	return res, nil
}

// usableIndex returns the walk index when it answers walks for this
// (graph, alpha) pair: matching node count and termination probability.
// Without maintenance, live edge updates do not invalidate it (the FORA+
// staleness trade-off documented on WalkIndex); a maintained index serves
// fresh rows fast and simulates walks for invalidated nodes.
func (e *Engine) usableIndex(g *graph.Graph, alpha float64) *WalkIndex {
	if e.idx != nil && e.idx.Nodes() == g.N && e.idx.Alpha() == alpha {
		return e.idx
	}
	return nil
}

// runWalks alias-samples walk starts from the residual distribution and
// accumulates endpoint counts into per-chunk counters. Returns the number
// of chunks used.
func (e *Engine) runWalks(ctx context.Context, g *graph.Graph, ws *workspace, p Params, walks int64) (int, error) {
	ws.starts = ws.starts[:0]
	ws.weights = ws.weights[:0]
	for _, v := range ws.push.Touched() {
		if r := ws.push.R(v); r > 0 {
			ws.starts = append(ws.starts, v)
			ws.weights = append(ws.weights, r)
		}
	}
	if len(ws.starts) == 0 {
		return 0, nil
	}
	ws.alias.build(ws.weights)

	idx := e.usableIndex(g, p.Alpha)
	nc := e.pool.Chunks(int(walks))
	var canceled atomic.Bool
	e.pool.For(int(walks), func(w, lo, hi int) {
		counts := ws.counts[w]
		hits := ws.hits[w][:0]
		rng := splitmix.New(splitmix.Mix64(uint64(p.Seed), uint64(w)))
		var served, simulated int64
		for i := lo; i < hi; i++ {
			if i&0xfff == 0 && ctx.Err() != nil {
				canceled.Store(true)
				break
			}
			v := ws.starts[ws.alias.sample(&rng)]
			var t int32
			if idx != nil {
				var cached bool
				t, cached = idx.endpoint(g, v, &rng)
				if cached {
					served++
				} else {
					simulated++
				}
			} else {
				t = walkEnd(g, v, p.Alpha, &rng)
			}
			if t >= 0 {
				if counts[t] == 0 {
					hits = append(hits, t)
				}
				counts[t]++
			}
		}
		ws.hits[w] = hits
		if idx != nil {
			idx.addEndpointStats(served, simulated)
		}
	})
	if canceled.Load() {
		cleanup(ws, nc)
		return nc, ctx.Err()
	}
	return nc, nil
}

// selectTopK merges push estimates with walk counts and returns the top-k
// scores, descending (ties by ascending node id). π̂(t) = p(t) +
// (r_sum/ω)·count(t).
func (e *Engine) selectTopK(ws *workspace, nc int, rsum float64, walks int64, k int) []Score {
	cand := ws.cand[:0]
	for _, v := range ws.push.Touched() {
		if ws.push.P(v) > 0 {
			ws.seen[v] = true
			cand = append(cand, v)
		}
	}
	for w := 0; w < nc; w++ {
		for _, t := range ws.hits[w] {
			if !ws.seen[t] {
				ws.seen[t] = true
				cand = append(cand, t)
			}
		}
	}
	ws.cand = cand

	inc := 0.0
	if walks > 0 {
		inc = rsum / float64(walks)
	}
	h := ws.heap[:0]
	for _, t := range cand {
		s := ws.push.P(t)
		if inc > 0 {
			total := int32(0)
			for w := 0; w < nc; w++ {
				total += ws.counts[w][t]
			}
			s += inc * float64(total)
		}
		sc := Score{Node: t, Score: s}
		if len(h) < k {
			h = append(h, sc)
			siftUp(h, len(h)-1)
		} else if worse(h[0], sc) {
			h[0] = sc
			siftDown(h, 0)
		}
	}
	ws.heap = h[:0]
	out := make([]Score, len(h))
	copy(out, h)
	sort.Slice(out, func(i, j int) bool { return worse(out[j], out[i]) })
	return out
}

// cleanup zeroes exactly the entries a query touched, so pooled
// workspaces carry no state between requests at O(touched) cost.
func cleanup(ws *workspace, nc int) {
	for _, v := range ws.cand {
		ws.seen[v] = false
	}
	ws.cand = ws.cand[:0]
	for w := 0; w < nc; w++ {
		counts := ws.counts[w]
		for _, t := range ws.hits[w] {
			counts[t] = 0
		}
		ws.hits[w] = ws.hits[w][:0]
	}
}

// worse reports whether a ranks strictly below b (lower score, ties by
// higher node id) — the min-heap order for top-k selection.
func worse(a, b Score) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node
}

func siftUp(h []Score, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []Score, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && worse(h[l], h[min]) {
			min = l
		}
		if r < len(h) && worse(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// dedupeSeeds returns the sorted distinct seed set without mutating the
// input.
func dedupeSeeds(seeds []int32) []int32 {
	out := make([]int32, len(seeds))
	copy(out, seeds)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}
