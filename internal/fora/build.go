package fora

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/nrp-embed/nrp/internal/graph"
	"github.com/nrp-embed/nrp/internal/par"
	"github.com/nrp-embed/nrp/internal/ppr"
	"github.com/nrp-embed/nrp/internal/splitmix"
)

// This file is the batch-build face of the FORA estimator: where Engine
// answers one online seed-set query with a full (ε, δ) guarantee, the
// BuildEstimator sweeps every node as a source row of the PPR proximity
// matrix, shares one walk index across all n rows, and uses TopPPR-style
// top-k early termination — the embedding build only consumes the top
// entries of each row, so each row stops pushing and walking as soon as
// its k-th estimate is separated from the residual bound, instead of
// paying the full per-row guarantee.

// Build-estimator defaults, chosen on the 100k-node SBM bench fixture so
// the FORA build beats backward push ≥ 2× at link-prediction AUC parity.
const (
	// DefaultBuildTopK is the number of entries kept per source row. Wider
	// than the factorization rank on purpose: on community-structured
	// graphs the SVD recovers the community subspace from the union of
	// kept entries, and rows truncated at the rank itself are too sparse
	// relative to community size to carry it.
	DefaultBuildTopK = 56
	// DefaultBuildPFail is the per-row failure probability. The build
	// tolerates far noisier rows than serving (the rank-k′ SVD averages
	// ~n·k entries), so this is orders looser than the 1/n serving
	// default.
	DefaultBuildPFail = 0.1
	// DefaultBuildWalksPerNode is K, the walk-index endpoints stored per
	// node.
	DefaultBuildWalksPerNode = 8
	// DefaultBuildWalkBudget caps the Monte Carlo walks any single row
	// spends after early termination.
	DefaultBuildWalkBudget = 256
	// DefaultBuildPushBudget caps the push operations any single row
	// spends across refinement rounds. Together with the walk budget it
	// hard-bounds per-row work: rows whose k-th value never separates
	// cleanly stop refining here and let the factorization absorb the
	// extra sampling noise.
	DefaultBuildPushBudget = 48

	// buildTopKTheta sets the early-termination guarantee threshold to
	// θ·p_k: entries at or above a θ fraction of the current k-th
	// estimate are resolved within ε relative error, everything smaller
	// is noise the factorization truncates anyway.
	buildTopKTheta = 0.5
	// buildRmaxShrink is the per-round refinement factor of the push
	// threshold in the coarse-to-fine loop. Kept small so one refinement
	// round overshoots the push budget by at most ~this factor (the
	// budget is only checked between rounds).
	buildRmaxShrink = 2
	// buildRowSalt keys the per-row walk RNG streams apart from the
	// (seed, node) streams the walk index itself is built from.
	buildRowSalt = 0x5851f42d4c957f2d
)

// BuildOptions configure a BuildEstimator. Zero values select the
// defaults above (and the engine-level Alpha/Epsilon defaults).
type BuildOptions struct {
	// Alpha is the walk termination probability of Eq. (1).
	Alpha float64
	// TopK is the number of largest entries kept per source row.
	TopK int
	// Epsilon is the relative error bound ε on the kept entries.
	Epsilon float64
	// PFail is the per-row failure probability of the guarantee.
	PFail float64
	// WalksPerNode is K, the shared walk-index endpoints per node.
	WalksPerNode int
	// WalkBudget caps the walks per row under early termination.
	WalkBudget int
	// PushBudget caps the push operations per row under early
	// termination.
	PushBudget int
	// Seed keys all RNG streams; rows are deterministic in (Seed, row)
	// regardless of thread count.
	Seed int64
	// Exhaustive disables top-k early termination: every row pays the
	// full (ε, δ = 1/n) FORA guarantee. Only useful as the control arm
	// of the early-termination accounting tests — the batch build would
	// take longer than backward push this way.
	Exhaustive bool
}

func (o BuildOptions) withDefaults() (BuildOptions, error) {
	if o.Alpha == 0 {
		o.Alpha = DefaultAlpha
	}
	if o.TopK == 0 {
		o.TopK = DefaultBuildTopK
	}
	if o.Epsilon == 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.PFail == 0 {
		o.PFail = DefaultBuildPFail
	}
	if o.WalksPerNode == 0 {
		o.WalksPerNode = DefaultBuildWalksPerNode
	}
	if o.WalkBudget == 0 {
		o.WalkBudget = DefaultBuildWalkBudget
	}
	if o.PushBudget == 0 {
		o.PushBudget = DefaultBuildPushBudget
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if err := checkAlpha(o.Alpha); err != nil {
		return o, err
	}
	if !(o.Epsilon > 0) || math.IsInf(o.Epsilon, 1) {
		return o, fmt.Errorf("%w: got %v", ErrInvalidEpsilon, o.Epsilon)
	}
	if o.TopK < 1 {
		return o, fmt.Errorf("fora: build top-k must be positive, got %d", o.TopK)
	}
	if o.WalksPerNode < 1 {
		return o, fmt.Errorf("fora: walks per node must be positive, got %d", o.WalksPerNode)
	}
	if o.WalkBudget < 1 {
		return o, fmt.Errorf("fora: walk budget must be positive, got %d", o.WalkBudget)
	}
	if o.PushBudget < 1 {
		return o, fmt.Errorf("fora: push budget must be positive, got %d", o.PushBudget)
	}
	if !(o.PFail > 0 && o.PFail < 1) {
		return o, fmt.Errorf("fora: failure probability must be in (0,1), got %v", o.PFail)
	}
	return o, nil
}

// BuildStats are the cumulative work counters of a BuildEstimator — the
// observable that the early-termination tests assert on.
type BuildStats struct {
	// Rows is the number of source rows estimated.
	Rows int64
	// PushOps is the total number of node-push operations across rows.
	PushOps int64
	// Walks is the total number of Monte Carlo walks across rows.
	Walks int64
	// Rounds is the total number of push rounds (1 per row plus 1 per
	// coarse-to-fine refinement).
	Rounds int64
	// IndexWalks is the number of walks simulated while building the
	// shared walk index (n·WalksPerNode).
	IndexWalks int64
}

// BuildEstimator estimates the top entries of every row of the PPR
// proximity matrix Π′ = Σ_{i≥1} α(1−α)^i P^i over one shared walk index.
// Safe for one Rows sweep at a time; counters accumulate across sweeps.
type BuildEstimator struct {
	g    *graph.Graph
	pool *par.Pool
	idx  *WalkIndex
	o    BuildOptions

	omegaC     float64 // (2ε/3+2)·ln(2/p_f)/ε²
	deltaFloor float64 // 1/n — the full-guarantee δ
	rmaxFloor  float64 // FORA-balanced rmax at δ = deltaFloor

	rows    atomic.Int64
	pushOps atomic.Int64
	walks   atomic.Int64
	rounds  atomic.Int64
}

// NewBuildEstimator validates o and builds the shared walk index on the
// pool (the one O(n·K/α) upfront cost all rows amortize).
func NewBuildEstimator(ctx context.Context, g *graph.Graph, pool *par.Pool, o BuildOptions) (*BuildEstimator, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	idx, err := BuildWalkIndex(ctx, g, pool, o.Alpha, o.WalksPerNode, o.Seed)
	if err != nil {
		return nil, err
	}
	n := g.N
	if n < 2 {
		n = 2
	}
	m := g.Arcs()
	if m == 0 {
		m = 1
	}
	e := &BuildEstimator{
		g:          g,
		pool:       pool,
		idx:        idx,
		o:          o,
		omegaC:     (2*o.Epsilon/3 + 2) * math.Log(2/o.PFail) / (o.Epsilon * o.Epsilon),
		deltaFloor: 1 / float64(n),
	}
	e.rmaxFloor = o.Epsilon * math.Sqrt(e.deltaFloor/(e.omegaC*float64(m)))
	return e, nil
}

// Index returns the shared walk index.
func (e *BuildEstimator) Index() *WalkIndex { return e.idx }

// Options returns the resolved build options.
func (e *BuildEstimator) Options() BuildOptions { return e.o }

// Stats returns a snapshot of the cumulative work counters.
func (e *BuildEstimator) Stats() BuildStats {
	return BuildStats{
		Rows:       e.rows.Load(),
		PushOps:    e.pushOps.Load(),
		Walks:      e.walks.Load(),
		Rounds:     e.rounds.Load(),
		IndexWalks: int64(e.idx.Nodes()) * int64(e.idx.WalksPerNode()),
	}
}

// buildWS is the per-worker scratch of a Rows sweep.
type buildWS struct {
	push    *ppr.Workspace
	acc     []float64 // per-node walk-mass accumulator, zeroed via hitList
	hitList []int32
	pheap   []float64 // k-th-largest-estimate selection heap
	cand    []Score   // top-k output candidate buffer
	cols    []int32
	vals    []float64
	seedBuf [1]int32
	walks   int64 // chunk-local counters, flushed per chunk
	rounds  int64
}

// Rows estimates every source row in parallel and hands each row's top
// entries to emit as (row, cols, vals) with cols ascending. emit is
// called concurrently from pool workers, once per row, with scratch
// slices valid only for the duration of the call; rows are disjoint, so
// writing to a per-row slot needs no locking. progress (optional)
// receives cumulative completed-row counts; unlike emit it is called by
// one worker at a time with strictly increasing counts, which is what a
// pipeline ProgressFunc is promised, so a caller may keep the last count
// without synchronizing. Output is deterministic in (Seed, row) for any
// thread count.
func (e *BuildEstimator) Rows(ctx context.Context, emit func(u int32, cols []int32, vals []float64), progress func(done, total int)) error {
	n := e.g.N
	states := make([]*buildWS, e.pool.Workers())
	var (
		progressMu sync.Mutex
		done       int
	)
	err := e.pool.ForChunked(ctx, n, 512, func(w, lo, hi int) error {
		ws := states[w]
		if ws == nil {
			ws = &buildWS{
				push: ppr.NewWorkspace(n),
				acc:  make([]float64, n),
			}
			states[w] = ws
		}
		opsBefore := ws.push.Ops()
		ws.walks, ws.rounds = 0, 0
		for i := lo; i < hi; i++ {
			u := int32(i)
			cols, vals := e.estimateRow(ws, u)
			emit(u, cols, vals)
		}
		e.rows.Add(int64(hi - lo))
		e.pushOps.Add(ws.push.Ops() - opsBefore)
		e.walks.Add(ws.walks)
		e.rounds.Add(ws.rounds)
		if progress != nil {
			// Held across the callback so counts arrive in order; it runs
			// once per 512-row chunk and is required to return quickly.
			progressMu.Lock()
			done += hi - lo
			progress(done, n)
			progressMu.Unlock()
		}
		return nil
	})
	return err
}

// estimateRow estimates the top entries of source row u. The returned
// slices alias ws scratch.
//
// Early-termination loop: push coarsely, then refine rmax geometrically
// until the walk count implied by δ = max(θ·p_k, 1/n) — p_k the current
// k-th largest push estimate — fits the per-row walk budget. Separating
// the k-th value from the residual bound this way is the TopPPR insight:
// the guarantee only needs to hold down to the smallest entry the caller
// keeps, not down to the global 1/n floor.
func (e *BuildEstimator) estimateRow(ws *buildWS, u int32) (cols []int32, vals []float64) {
	g, o := e.g, &e.o
	opsStart := ws.push.Ops()

	rmax := e.rmaxFloor
	if !o.Exhaustive {
		// Coarse opening threshold; the 1/(2·deg) cap makes high-degree
		// sources push at least their own residual instead of sending
		// everything to the walk phase.
		rmax = 1 / float64(4*o.TopK)
		if deg := g.OutDeg(int(u)); deg > 0 {
			if c := 1 / float64(2*deg); c < rmax {
				rmax = c
			}
		}
		if rmax < e.rmaxFloor {
			rmax = e.rmaxFloor
		}
	}
	ws.seedBuf[0] = u
	rsum := ws.push.ForwardPushSeeds(g, ws.seedBuf[:], o.Alpha, rmax)
	ws.rounds++

	var omega int64
	for rsum > 0 {
		if o.Exhaustive {
			need := math.Ceil(rsum * e.omegaC / e.deltaFloor)
			if need > maxWalksPerQuery {
				need = maxWalksPerQuery
			}
			omega = int64(need)
			break
		}
		stop := rmax <= e.rmaxFloor || ws.push.Ops()-opsStart >= int64(o.PushBudget)
		// δ = max(θ·p_k, 1/n) can never exceed max(θ·p_1, 1/n), and p_1 is
		// tracked for free by the push workspace — so whenever even that
		// optimistic δ demands more walks than the budget, the exact k-th
		// selection cannot terminate the row either and its O(touched)
		// heap scan is skipped. On hard rows (the bulk of a batch sweep,
		// which run to the push budget with p_1 still small) the selection
		// never runs at all.
		dmax := buildTopKTheta * ws.push.PMax()
		if dmax < e.deltaFloor {
			dmax = e.deltaFloor
		}
		if rsum*e.omegaC > float64(o.WalkBudget)*dmax {
			// Guarantee unreachable within the walk budget at any δ.
			if stop {
				omega = int64(o.WalkBudget)
				break
			}
		} else {
			delta := e.deltaFloor
			if d := buildTopKTheta * ws.kthLargestP(o.TopK); d > delta {
				delta = d
			}
			need := math.Ceil(rsum * e.omegaC / delta)
			if need > maxWalksPerQuery {
				need = maxWalksPerQuery
			}
			// Early termination: stop once δ = θ·p_k is resolvable within
			// the walk budget — or once a budget says more refinement
			// cannot pay for itself, and let the factorization absorb the
			// extra noise.
			if need <= float64(o.WalkBudget) || stop {
				omega = int64(need)
				if omega > int64(o.WalkBudget) {
					omega = int64(o.WalkBudget)
				}
				break
			}
		}
		rmax /= buildRmaxShrink
		if rmax < e.rmaxFloor {
			rmax = e.rmaxFloor
		}
		rsum = ws.push.ForwardPushResume(g, o.Alpha, rmax)
		ws.rounds++
	}

	// Walk phase: stratified allocation over the shared index. Node v's
	// exact share is x_v = r(v)·ω/r_sum walks. A start whose share
	// reaches K (the stored walks per node) consumes its whole index row
	// deterministically at mass r(v)/K per endpoint — more resampling
	// could add no information beyond the K stored walks, so the cost of
	// a heavy start is capped at K array reads regardless of ω. Light
	// starts probabilistically round x_v to ⌊x_v⌋ or ⌈x_v⌉ sampled
	// endpoints at the uniform mass r_sum/ω, keeping every node's
	// expected contribution exactly r(v). Serial within the row
	// (parallelism is across rows) with the RNG stream keyed on
	// (Seed, row), so the result is thread-count independent.
	if omega > 0 {
		rng := splitmix.New(splitmix.Mix64(uint64(o.Seed)^buildRowSalt, uint64(u)))
		inc := rsum / float64(omega)
		perMass := float64(omega) / rsum
		// The estimator owns its freshly built, unmaintained index, so
		// rows can be read directly; fall back to the slot-atomic
		// endpoint path if a caller enabled maintenance on Index().
		fresh := !e.idx.Maintained()
		ik := e.idx.k
		k := float64(ik)
		walked := int64(0)
		for _, v := range ws.push.Touched() {
			r := ws.push.R(v)
			if r <= 0 {
				continue
			}
			x := r * perMass
			if fresh {
				row := e.idx.ends[int(v)*ik : int(v)*ik+ik]
				if x >= k {
					// Heavy start: consume the whole stored row at mass
					// r/K — more resampling could add no information
					// beyond the K stored walks, so heavy-start cost is
					// capped at K reads regardless of ω.
					incv := r / k
					for _, t := range row {
						if t >= 0 {
							if ws.acc[t] == 0 {
								ws.hitList = append(ws.hitList, t)
							}
							ws.acc[t] += incv
						}
					}
					walked += int64(ik)
					continue
				}
				wv := int(x)
				if rng.Float64() < x-float64(wv) {
					wv++
				}
				for j := 0; j < wv; j++ {
					if t := row[rng.Intn(ik)]; t >= 0 {
						if ws.acc[t] == 0 {
							ws.hitList = append(ws.hitList, t)
						}
						ws.acc[t] += inc
					}
				}
				walked += int64(wv)
				continue
			}
			wv := int(x)
			if rng.Float64() < x-float64(wv) {
				wv++
			}
			for j := 0; j < wv; j++ {
				t, _ := e.idx.endpoint(g, v, &rng)
				if t >= 0 {
					if ws.acc[t] == 0 {
						ws.hitList = append(ws.hitList, t)
					}
					ws.acc[t] += inc
				}
			}
			walked += int64(wv)
		}
		ws.walks += walked
	}

	// Merge push estimates with walk mass, subtract the i=0 self mass α
	// (Π′ starts at i=1), and keep the row's top entries. Candidates are
	// collected flat and the top k selected with one quickselect pass —
	// the candidate set is small (pushed nodes plus distinct walk
	// endpoints), so a partition beats maintaining a min-heap across
	// every insertion.
	h := ws.cand[:0]
	for _, t := range ws.hitList {
		if ws.push.P(t) > 0 {
			continue // merged in the push loop below
		}
		s := ws.acc[t]
		if t == u {
			s -= o.Alpha
		}
		if s > 0 {
			h = append(h, Score{Node: t, Score: s})
		}
	}
	for _, v := range ws.push.Touched() {
		p := ws.push.P(v)
		if p <= 0 {
			continue
		}
		s := p + ws.acc[v]
		if v == u {
			s -= o.Alpha
		}
		if s > 0 {
			h = append(h, Score{Node: v, Score: s})
		}
	}
	if len(h) > o.TopK {
		selectTop(h, o.TopK)
		h = h[:o.TopK]
	}
	ws.cand = h[:0]

	// O(touched) cleanup; the push workspace resets itself on the next
	// ForwardPushSeeds.
	for _, t := range ws.hitList {
		ws.acc[t] = 0
	}
	ws.hitList = ws.hitList[:0]

	slices.SortFunc(h, func(a, b Score) int { return int(a.Node) - int(b.Node) })
	cols = ws.cols[:0]
	vals = ws.vals[:0]
	for _, sc := range h {
		cols = append(cols, sc.Node)
		vals = append(vals, sc.Score)
	}
	ws.cols, ws.vals = cols, vals
	return cols, vals
}

// kthLargestP returns the k-th largest push estimate of the current row
// (0 when fewer than k nodes have one) via a size-k min-heap over the
// touched set.
func (ws *buildWS) kthLargestP(k int) float64 {
	h := ws.pheap[:0]
	for _, v := range ws.push.Touched() {
		p := ws.push.P(v)
		if p <= 0 {
			continue
		}
		if len(h) < k {
			h = append(h, p)
			for i := len(h) - 1; i > 0; {
				parent := (i - 1) / 2
				if h[parent] <= h[i] {
					break
				}
				h[i], h[parent] = h[parent], h[i]
				i = parent
			}
		} else if p > h[0] {
			h[0] = p
			i := 0
			for {
				l, r := 2*i+1, 2*i+2
				min := i
				if l < len(h) && h[l] < h[min] {
					min = l
				}
				if r < len(h) && h[r] < h[min] {
					min = r
				}
				if min == i {
					break
				}
				h[i], h[min] = h[min], h[i]
				i = min
			}
		}
	}
	ws.pheap = h
	if len(h) < k {
		return 0
	}
	return h[0]
}

// selectTop partially orders sc so that its k best entries under the
// worse ordering (highest score, ties to the lower node id) occupy
// sc[:k], in unspecified order. The ordering is a strict total order
// (node ids are unique), so the selected set is exact — identical to
// what a full sort would keep. Deterministic quickselect; candidate
// buffers arrive in discovery order with pseudo-random scores, so the
// middle-element pivot stays near the median in practice.
func selectTop(sc []Score, k int) {
	lo, hi := 0, len(sc)
	for hi-lo > 1 {
		p := partitionTop(sc, lo, hi)
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
}

// partitionTop partitions sc[lo:hi] around the middle element so entries
// better than it precede it, and returns its final index.
func partitionTop(sc []Score, lo, hi int) int {
	mid := lo + (hi-lo)/2
	sc[lo], sc[mid] = sc[mid], sc[lo]
	piv := sc[lo]
	i := lo
	for j := lo + 1; j < hi; j++ {
		if worse(piv, sc[j]) {
			i++
			sc[i], sc[j] = sc[j], sc[i]
		}
	}
	sc[lo], sc[i] = sc[i], sc[lo]
	return i
}
