// Package ann implements the HNSW (Hierarchical Navigable Small World)
// graph index behind the sublinear top-k serving backend: a layered
// proximity graph over the backward embedding rows whose greedy descent
// answers maximum-inner-product queries by visiting O(ef·M) candidates
// instead of scanning all n rows.
//
// Ordering is by inner product directly (higher is better) — the same
// asymmetric MIPS setting as the scan backends: the graph is built over
// the database rows Y, and a query scores X_u against them. Inner
// product is not a metric, but the navigable-graph construction only
// needs a consistent total order per query, and NRP's heavy-tailed norm
// profile makes the high-norm rows natural hubs that greedy descent
// finds quickly.
//
// Determinism contract (matching internal/par): a build with a fixed
// Config is bit-identical for every thread count. Node levels come from
// a per-node splitmix64 stream (independent of insertion order), and the
// build inserts nodes in batches — each batch searches the graph frozen
// at the batch boundary in parallel, then commits its links serially in
// ascending node order. Snapshots of the same build are therefore
// byte-identical, which the index snapshot tests pin.
package ann

import (
	"math"
	"slices"

	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/par"
	"github.com/nrp-embed/nrp/internal/splitmix"
)

// Tunables and their defaults. M is the out-degree budget per node at
// layers ≥ 1 (layer 0 keeps 2M); EfConstruction is the candidate-beam
// width while building; EfSearch the default beam width while querying.
const (
	DefaultM              = 16
	DefaultEfConstruction = 200
	DefaultEfSearch       = 96

	// maxLevelCap bounds the level geometric draw; with mL = 1/ln(M) a
	// level this high has probability ~M^-32 — hitting the cap means a
	// corrupt snapshot, not luck.
	maxLevelCap = 32

	// maxBatch caps the insert batch size: nodes inside one batch search
	// the graph frozen at the batch start, so the cap bounds how much of
	// the neighborhood structure an insert can miss (≤1% at n=100k).
	maxBatch = 1024
)

// Config fixes an HNSW build. The zero value selects every default.
type Config struct {
	// M is the maximum out-degree at layers ≥ 1; layer 0 allows 2M.
	M int
	// EfConstruction is the beam width of build-time neighbor searches.
	EfConstruction int
	// EfSearch is the default beam width of queries; Search clamps its
	// beam to at least this many candidates. Raising it buys recall with
	// proportionally more distance evaluations.
	EfSearch int
	// Seed feeds the per-node splitmix64 level streams.
	Seed uint64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.M <= 0 {
		c.M = DefaultM
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = DefaultEfConstruction
	}
	if c.EfSearch <= 0 {
		c.EfSearch = DefaultEfSearch
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Index is the built graph. Immutable after Build/Load and safe for
// concurrent searches; the embedding matrix it references must not be
// mutated while queries run.
type Index struct {
	cfg Config
	y   *matrix.Dense // candidate rows, not owned

	levels []int32 // per-node top layer
	// Flat adjacency. Node v's block spans nbrs[nbrOff[v]:nbrOff[v+1]]:
	// first 2M entries are layer 0, then levels[v] groups of M for layers
	// 1..levels[v]. cnts[cntOff[v]+l] holds v's live neighbor count at
	// layer l.
	nbrOff []int64
	cntOff []int64
	nbrs   []int32
	cnts   []int32

	entry    int32 // highest-level node, the search entry point; -1 when empty
	maxLevel int32

	ws wsPool
}

// Config reports the build configuration (defaults resolved).
func (ix *Index) Config() Config { return ix.cfg }

// N reports the number of indexed rows.
func (ix *Index) N() int { return len(ix.levels) }

// scored pairs a node with its query score. Ordering is by decreasing
// score, ties broken by ascending node id — the same total order the
// exact backends sort results with, so equal-score frontiers are
// deterministic.
type scored struct {
	node  int32
	score float64
}

// better reports whether a outranks b.
func better(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.node < b.node
}

// compareScored is better as a three-way comparison for slices.SortFunc
// (whose generic pdqsort avoids sort.Slice's reflection-based swapper —
// the sort is on every query's exit path).
func compareScored(a, b scored) int {
	if better(a, b) {
		return -1
	}
	if better(b, a) {
		return 1
	}
	return 0
}

// levelFor draws node v's level from its own splitmix64 stream, so the
// assignment depends only on (seed, v) — never on insertion or thread
// order.
func levelFor(seed uint64, v int, mL float64) int32 {
	r := splitmix.New(splitmix.Mix64(seed, uint64(v)))
	u := r.Float64()
	// u ∈ [0,1); flip to (0,1] so the log is finite.
	l := int32(-math.Log(1-u) * mL)
	if l > maxLevelCap {
		l = maxLevelCap
	}
	return l
}

// layerSpan locates node v's neighbor slot range at layer l.
func (ix *Index) layerSpan(v int32, l int32) (start int64, capacity int32) {
	m := int64(ix.cfg.M)
	base := ix.nbrOff[v]
	if l == 0 {
		return base, int32(2 * m)
	}
	return base + 2*m + int64(l-1)*m, int32(m)
}

// neighbors returns v's live neighbor list at layer l, aliasing storage.
func (ix *Index) neighbors(v, l int32) []int32 {
	start, _ := ix.layerSpan(v, l)
	cnt := ix.cnts[ix.cntOff[v]+int64(l)]
	return ix.nbrs[start : start+int64(cnt)]
}

// Build constructs the graph over the rows of y. The pool bounds build
// parallelism (nil = serial); the result is bit-identical for every pool
// size. Build time is O(n · efConstruction · M) distance evaluations.
func Build(y *matrix.Dense, cfg Config, pool *par.Pool) *Index {
	cfg = cfg.withDefaults()
	n := y.Rows
	ix := &Index{cfg: cfg, y: y, entry: -1, maxLevel: 0}
	ix.levels = make([]int32, n)
	ix.nbrOff = make([]int64, n+1)
	ix.cntOff = make([]int64, n+1)
	if n == 0 {
		return ix
	}

	mL := 1 / math.Log(float64(cfg.M))
	for v := 0; v < n; v++ {
		ix.levels[v] = levelFor(cfg.Seed, v, mL)
		ix.nbrOff[v+1] = ix.nbrOff[v] + int64(2*cfg.M) + int64(ix.levels[v])*int64(cfg.M)
		ix.cntOff[v+1] = ix.cntOff[v] + int64(ix.levels[v]) + 1
	}
	ix.nbrs = make([]int32, ix.nbrOff[n])
	ix.cnts = make([]int32, ix.cntOff[n])

	// Node 0 seeds the graph: no search, it just becomes the entry.
	ix.entry = 0
	ix.maxLevel = ix.levels[0]

	// plans[i] holds the selected links for batch node i, one slice per
	// layer 0..min(level, frozen maxLevel).
	type plan struct{ selected [][]scored }
	for done := 1; done < n; {
		end := done * 2
		if end > done+maxBatch {
			end = done + maxBatch
		}
		if end > n {
			end = n
		}
		batch := end - done
		plans := make([]plan, batch)
		// Frozen state for the whole batch: searches only ever reach
		// committed nodes (< done), so parallel reads race with nothing.
		entry, maxLevel := ix.entry, ix.maxLevel
		pool.For(batch, func(_, lo, hi int) {
			ws := newWorkspace(n)
			for i := lo; i < hi; i++ {
				v := int32(done + i)
				q := y.Row(int(v))
				score := func(u int32) float64 { return matrix.Dot(q, y.Row(int(u))) }
				lv := ix.levels[v]
				ep := scored{node: entry, score: score(entry)}
				for l := maxLevel; l > lv; l-- {
					ep = ix.greedyStep(score, ep, l)
				}
				top := lv
				if top > maxLevel {
					top = maxLevel
				}
				plans[i].selected = make([][]scored, top+1)
				for l := top; l >= 0; l-- {
					cands := ix.searchLayer(score, ep, cfg.EfConstruction, l, ws, nil)
					plans[i].selected[l] = ix.selectNeighbors(cands, cfg.M)
					if len(cands) > 0 {
						ep = cands[0]
					}
				}
			}
		})
		// Serial commit in ascending node order keeps the result
		// independent of the parallel schedule above.
		for i := 0; i < batch; i++ {
			v := int32(done + i)
			for l := int32(0); l < int32(len(plans[i].selected)); l++ {
				for _, nb := range plans[i].selected[l] {
					ix.addLink(v, nb.node, l)
					ix.addLink(nb.node, v, l)
				}
			}
			if ix.levels[v] > ix.maxLevel {
				ix.maxLevel = ix.levels[v]
				ix.entry = v
			}
		}
		done = end
	}
	return ix
}

// addLink appends u to v's layer-l list, re-selecting the list with the
// diversity heuristic when it overflows its capacity.
func (ix *Index) addLink(v, u, l int32) {
	start, capacity := ix.layerSpan(v, l)
	ci := ix.cntOff[v] + int64(l)
	cnt := ix.cnts[ci]
	if cnt < capacity {
		ix.nbrs[start+int64(cnt)] = u
		ix.cnts[ci] = cnt + 1
		return
	}
	// Overflow: score current list + u against v and keep the best
	// diverse subset (the new link may lose).
	q := ix.y.Row(int(v))
	cands := make([]scored, 0, cnt+1)
	for _, w := range ix.nbrs[start : start+int64(cnt)] {
		cands = append(cands, scored{node: w, score: matrix.Dot(q, ix.y.Row(int(w)))})
	}
	cands = append(cands, scored{node: u, score: matrix.Dot(q, ix.y.Row(int(u)))})
	slices.SortFunc(cands, compareScored)
	kept := ix.selectNeighbors(cands, int(capacity))
	for i, nb := range kept {
		ix.nbrs[start+int64(i)] = nb.node
	}
	ix.cnts[ci] = int32(len(kept))
}

// selectNeighbors is the diversity heuristic (Malkov & Yashunin, Alg. 4)
// in inner-product form: walk the candidates best-first and keep c only
// if no already-kept r is closer to it than the query is — i.e.
// ⟨Y_c, Y_r⟩ ≤ ⟨q, Y_c⟩ for all kept r. cands must be sorted best-first.
func (ix *Index) selectNeighbors(cands []scored, m int) []scored {
	kept := make([]scored, 0, m)
	for _, c := range cands {
		if len(kept) == m {
			break
		}
		cv := ix.y.Row(int(c.node))
		ok := true
		for _, r := range kept {
			if matrix.Dot(cv, ix.y.Row(int(r.node))) > c.score {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, c)
		}
	}
	return kept
}

// greedyStep walks layer l greedily from ep until no neighbor improves
// the score (the ef=1 descent used above the target layer).
func (ix *Index) greedyStep(score func(int32) float64, ep scored, l int32) scored {
	for {
		improved := false
		for _, u := range ix.neighbors(ep.node, l) {
			if c := (scored{node: u, score: score(u)}); better(c, ep) {
				ep = c
				improved = true
			}
		}
		if !improved {
			return ep
		}
	}
}

// searchLayer is the beam search at one layer: expand the best frontier
// candidate, admit neighbors that beat the worst of the current ef best.
// Returns the results sorted best-first. When scanned is non-nil it
// accumulates the number of score evaluations.
func (ix *Index) searchLayer(score func(int32) float64, ep scored, ef int, l int32, ws *workspace, scanned *int) []scored {
	ws.reset()
	ws.visit(ep.node)
	ws.cand.push(ep)
	ws.res.push(ep, ef)
	evals := ix.runBeam(score, ef, l, ws)
	if scanned != nil {
		*scanned += evals
	}
	return ws.res.drainSorted()
}

// runBeam drains the frontier heap until no pending candidate can beat
// the worst of the current ef best. Each expansion gathers the popped
// node's unvisited neighbors first and scores them in a tight loop —
// the (random) row loads of one expansion are independent, so batching
// them lets the memory pipeline overlap the misses instead of
// serializing each behind the previous neighbor's heap update. Scoring
// order and the sequential admission order match the classic
// interleaved loop exactly, so results and eval counts are unchanged.
func (ix *Index) runBeam(score func(int32) float64, ef int, l int32, ws *workspace) (evals int) {
	for ws.cand.len() > 0 {
		c := ws.cand.pop()
		if ws.res.len() == ef && better(ws.res.min(), c) {
			break
		}
		nbrs := ix.neighbors(c.node, l)
		ws.stage(len(nbrs))
		batch := ws.batch[:0]
		for _, u := range nbrs {
			if !ws.visited(u) {
				ws.visit(u)
				batch = append(batch, u)
			}
		}
		scores := ws.scores[:len(batch)]
		for i, u := range batch {
			scores[i] = score(u)
		}
		evals += len(batch)
		for i, u := range batch {
			s := scored{node: u, score: scores[i]}
			if ws.res.len() < ef || better(s, ws.res.min()) {
				ws.cand.push(s)
				ws.res.push(s, ef)
			}
		}
	}
	return evals
}

// Search runs a query: greedy descent from the entry point to layer 1,
// then a beam of width ef at layer 0. score must order candidates by
// (approximate) inner product with the query; Search returns the top
// min(ef, reachable) nodes best-first plus the number of score
// evaluations. ef ≤ 0 selects the build's EfSearch.
//
// Callers filtering results (self-exclusion, reranking) should ask for a
// beam at least as wide as the shortlist they need.
func (ix *Index) Search(score func(int32) float64, ef int) (results []scored, scanned int) {
	if ix.entry < 0 {
		return nil, 0
	}
	if ef <= 0 {
		ef = ix.cfg.EfSearch
	}
	ws := ix.ws.get(ix.N())
	defer ix.ws.put(ws)
	ep := scored{node: ix.entry, score: score(ix.entry)}
	scanned = 1
	for l := ix.maxLevel; l > 0; l-- {
		prev := ep
		ep = ix.greedyDescentCounted(score, prev, l, &scanned)
	}
	results = ix.searchLayer(score, ep, ef, 0, ws, &scanned)
	return results, scanned
}

// SearchSeeded runs a layer-0 beam whose result heap starts from the
// given seed rows instead of a hierarchical descent from the entry
// point. Seeds are scored up front (out-of-range and duplicate ids are
// skipped), which fills the result heap immediately and raises the
// admission threshold before any graph edge is followed — the beam then
// only expands where the graph can actually improve on the seeds. With
// NRP's heavy-tailed norm profile, seeding with the top-norm rows
// covers the hub mass every query shares and leaves the (much cheaper)
// beam to recover the query-specific tail; the upper layers, whose job
// the seeds do, are skipped entirely. An empty seed list falls back to
// Search.
func (ix *Index) SearchSeeded(score func(int32) float64, ef int, seeds []int32) (results []scored, scanned int) {
	if len(seeds) == 0 {
		return ix.Search(score, ef)
	}
	if ix.entry < 0 {
		return nil, 0
	}
	if ef <= 0 {
		ef = ix.cfg.EfSearch
	}
	n := int32(ix.N())
	ws := ix.ws.get(ix.N())
	defer ix.ws.put(ws)
	ws.reset()
	ws.stage(len(seeds))
	batch := ws.batch[:0]
	for _, s := range seeds {
		if s < 0 || s >= n || ws.visited(s) {
			continue
		}
		ws.visit(s)
		batch = append(batch, s)
	}
	scores := ws.scores[:len(batch)]
	for i, u := range batch {
		scores[i] = score(u)
	}
	scanned = len(batch)
	for i, u := range batch {
		sc := scored{node: u, score: scores[i]}
		// Same admission rule as the beam itself: a seed that cannot enter
		// the current ef best would be popped straight into the beam's
		// termination test, so queueing it as a frontier candidate is pure
		// heap traffic. Its own score was already counted above.
		if ws.res.len() < ef || better(sc, ws.res.min()) {
			ws.cand.push(sc)
			ws.res.push(sc, ef)
		}
	}
	scanned += ix.runBeam(score, ef, 0, ws)
	return ws.res.drainSorted(), scanned
}

// SearchScored adapts Search to a public result type.
type Candidate struct {
	Node  int32
	Score float64
}

// TopCandidates runs Search and copies the results into the exported
// Candidate type (best-first).
func (ix *Index) TopCandidates(score func(int32) float64, ef int) ([]Candidate, int) {
	res, scanned := ix.Search(score, ef)
	out := make([]Candidate, len(res))
	for i, s := range res {
		out[i] = Candidate{Node: s.node, Score: s.score}
	}
	return out, scanned
}

// TopCandidatesSeeded is TopCandidates over SearchSeeded.
func (ix *Index) TopCandidatesSeeded(score func(int32) float64, ef int, seeds []int32) ([]Candidate, int) {
	res, scanned := ix.SearchSeeded(score, ef, seeds)
	out := make([]Candidate, len(res))
	for i, s := range res {
		out[i] = Candidate{Node: s.node, Score: s.score}
	}
	return out, scanned
}

// greedyDescentCounted is greedyStep with evaluation accounting.
func (ix *Index) greedyDescentCounted(score func(int32) float64, ep scored, l int32, scanned *int) scored {
	for {
		improved := false
		for _, u := range ix.neighbors(ep.node, l) {
			*scanned++
			if c := (scored{node: u, score: score(u)}); better(c, ep) {
				ep = c
				improved = true
			}
		}
		if !improved {
			return ep
		}
	}
}
