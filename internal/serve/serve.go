// Package serve implements the HTTP layer of cmd/nrpserve: JSON
// request/response types, handlers over an nrp.Searcher, typed-error to
// status-code mapping, and graceful drain on shutdown.
//
// Endpoints:
//
//	GET  /v1/healthz          liveness + index metadata
//	GET  /v1/topk?u=42&k=10   single top-k query
//	POST /v1/topk             {"u":42,"k":10} or {"us":[1,2,3],"k":10}
//	POST /v1/score            {"pairs":[[0,1],[2,3]]}
//	POST /v1/ppr              {"seeds":[1,2],"k":10}               (PPR-enabled servers)
//	POST /v1/update           {"insert":[[0,1]],"remove":[[2,3]]}  (live servers)
//	POST /v1/refresh          {}                                   (live servers)
//
// All responses are JSON. Malformed requests — bad JSON, k <= 0, node ids
// outside [0, N), invalid PPR parameters — map to 400 via the
// nrp.ErrInvalidK, nrp.ErrNodeOutOfRange, nrp.ErrEmptySeedSet,
// nrp.ErrInvalidAlpha and nrp.ErrInvalidEpsilon sentinels; queries cut
// short by server shutdown map to 503.
//
// A server constructed with NewLiveServer additionally accepts edge
// updates and refreshes: /v1/update applies batched insertions/removals
// to the underlying graph and /v1/refresh brings the embedding in sync
// and atomically swaps the serving index (in-flight queries finish on the
// old index — zero downtime). On a static server both return 409.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/nrp-embed/nrp"
)

// Config carries the serving metadata that is not derivable from the
// Searcher itself.
type Config struct {
	// Backend labels the index backend in /v1/healthz responses.
	Backend string
	// MaxK caps the k a single request may ask for (default 1000): a cheap
	// guard against a single query holding a worker for a full-index sort.
	MaxK int
	// MaxBatch caps the number of sources in one /v1/topk batch, the
	// number of pairs in one /v1/score call, and the number of seeds in
	// one /v1/ppr call (default 1024).
	MaxBatch int
	// PPR, when non-nil, enables /v1/ppr: online seed-set PPR queries on
	// the graph the server was booted from. On a live server, queries run
	// against the current graph snapshot, so they observe edges applied
	// through /v1/update immediately — no /v1/refresh needed.
	PPR *nrp.PPREngine
	// Logger, when non-nil, receives one structured request line per call
	// (endpoint, method, status, duration, k, client). Nil keeps the
	// server quiet — the default in tests.
	Logger *slog.Logger
	// RateLimit, when > 0, enables per-client-IP token-bucket rate
	// limiting at this many requests per second. Over-limit requests get
	// 429 with a Retry-After header. /metrics and /v1/healthz are exempt.
	RateLimit float64
	// RateBurst is the token-bucket burst capacity (default
	// max(1, RateLimit)). Only meaningful with RateLimit > 0.
	RateBurst int
	// Coalesce aggregates concurrent single-source /v1/topk calls into
	// one TopKMany pass through the batched kernel, deduplicating hot
	// sources — a throughput win under concurrent skewed traffic.
	Coalesce bool
	// CoalesceWindow is how long a lone round leader waits for concurrent
	// callers to join its batch before scanning (default 250µs; negative
	// disables the wait). Only meaningful with Coalesce.
	CoalesceWindow time.Duration
	// Shard, when non-nil, marks this process as one slice of a sharded
	// deployment (nrpserve -shard i/N). It is advertised in /v1/healthz so
	// a router can validate that its shard set forms a complete partition
	// of [0, N) before fanning queries out.
	Shard *ShardInfo
}

// ShardInfo describes the node-range slice a shard server is responsible
// for. Lo/Hi are the half-open candidate range [Lo, Hi) computed by
// nrp.ShardRange — the same ceil-chunked partition the in-process shard
// scans use, so slice boundaries never drift between layers.
type ShardInfo struct {
	Index int `json:"index"`
	Count int `json:"count"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
}

const (
	defaultMaxK     = 1000
	defaultMaxBatch = 1024
)

// Server serves proximity queries over a fixed Searcher, or — when
// constructed with NewLiveServer — over a live index that accepts updates.
type Server struct {
	searcher nrp.Searcher
	live     *nrp.LiveIndex // nil for static servers
	cfg      Config
	metrics  *Metrics
	limiter  *rateLimiter // nil unless cfg.RateLimit > 0
	coal     *coalescer   // nil unless cfg.Coalesce
	draining atomic.Bool
	start    time.Time
}

// NewServer wraps a Searcher for HTTP serving. The update endpoints
// respond 409 (the index is static); use NewLiveServer to accept updates.
func NewServer(s nrp.Searcher, cfg Config) *Server {
	if cfg.MaxK <= 0 {
		cfg.MaxK = defaultMaxK
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	sv := &Server{searcher: s, cfg: cfg, start: time.Now()}
	sv.metrics = newMetrics(sv)
	if cfg.RateLimit > 0 {
		sv.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	if cfg.Coalesce {
		sv.coal = newCoalescer(s, sv.metrics, cfg.CoalesceWindow)
	}
	return sv
}

// NewLiveServer wraps a LiveIndex for HTTP serving with the update and
// refresh endpoints enabled. Queries hit the index current at request
// start; a concurrent refresh swaps the index without failing them.
func NewLiveServer(li *nrp.LiveIndex, cfg Config) *Server {
	sv := NewServer(li, cfg)
	sv.live = li
	// Re-register so the live-index families (swaps, pending, lag) exist.
	sv.metrics = newMetrics(sv)
	if sv.coal != nil {
		sv.coal = newCoalescer(li, sv.metrics, cfg.CoalesceWindow)
	}
	return sv
}

// Metrics exposes the server's telemetry surface so callers outside the
// HTTP handlers (the background refresh loop in cmd/nrpserve) can record
// events on the same registry /metrics serves.
func (sv *Server) Metrics() *Metrics { return sv.metrics }

// BeginDrain flips the server into drain mode: requests already in
// flight run to completion, while new requests (except /v1/healthz and
// /metrics) are rejected with 503 so a load balancer retries them on a
// healthy replica.
func (sv *Server) BeginDrain() {
	if sv.draining.CompareAndSwap(false, true) {
		sv.metrics.drainGauge.Set(1)
	}
}

// Draining reports whether BeginDrain has been called.
func (sv *Server) Draining() bool { return sv.draining.Load() }

// Handler returns the route table wrapped in the observability and
// protection middleware (metrics, request logging, drain gating, rate
// limiting), plus the GET /metrics exposition endpoint.
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", sv.handleHealthz)
	mux.HandleFunc("/v1/topk", sv.handleTopK)
	mux.HandleFunc("/v1/score", sv.handleScore)
	mux.HandleFunc("/v1/ppr", sv.handlePPR)
	mux.HandleFunc("/v1/update", sv.handleUpdate)
	mux.HandleFunc("/v1/refresh", sv.handleRefresh)
	mux.Handle("/metrics", sv.metrics.reg.Handler())
	return sv.instrument(mux)
}

// TopKRequest is the /v1/topk POST body. Exactly one of U or Us must be
// set. Stats opts into per-query backend work counters in the response
// (the GET form uses the ?stats=1 query parameter).
type TopKRequest struct {
	U     *int  `json:"u,omitempty"`
	Us    []int `json:"us,omitempty"`
	K     int   `json:"k"`
	Stats bool  `json:"stats,omitempty"`
}

// NeighborJSON is one scored candidate.
type NeighborJSON struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// StatsJSON reports per-query backend work.
type StatsJSON struct {
	Scanned   int   `json:"scanned"`
	Pruned    int   `json:"pruned"`
	Reranked  int   `json:"reranked"`
	ElapsedUs int64 `json:"elapsed_us"`
}

// ResultJSON is one query's answer. Stats is present only when the
// request asked for it (?stats=1 or "stats":true).
type ResultJSON struct {
	U         int            `json:"u"`
	Neighbors []NeighborJSON `json:"neighbors"`
	Stats     *StatsJSON     `json:"stats,omitempty"`
}

// TopKResponse is the /v1/topk response body. Partial is set only by the
// scatter-gather router (internal/router) when one or more shards failed
// and the answer covers a subset of the node space; shard servers and
// single-node deployments never set it.
type TopKResponse struct {
	K       int          `json:"k"`
	Results []ResultJSON `json:"results"`
	Partial bool         `json:"partial,omitempty"`
}

// ScoreRequest is the /v1/score POST body: pairs of [source, target].
type ScoreRequest struct {
	Pairs [][2]int `json:"pairs"`
}

// ScoreResponse is the /v1/score response body, aligned with the request
// pairs.
type ScoreResponse struct {
	Scores []float64 `json:"scores"`
}

// HealthzResponse is the /v1/healthz response body.
type HealthzResponse struct {
	Status  string `json:"status"`
	Nodes   int    `json:"nodes"`
	Backend string `json:"backend"`
	// Version and Revision identify the running build (module version and
	// VCS commit from runtime/debug.ReadBuildInfo; "unknown" when the
	// binary was built without that metadata).
	Version  string `json:"version"`
	Revision string `json:"revision"`
	// UptimeSeconds is the time since the Server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// PPR reports whether /v1/ppr is enabled on this deployment.
	PPR bool `json:"ppr,omitempty"`
	// Live reports whether the server accepts /v1/update and /v1/refresh.
	Live bool `json:"live,omitempty"`
	// PendingUpdates is the number of edge updates applied since the
	// serving index was last refreshed. Always present on live servers
	// (including the healthy 0), absent on static ones.
	PendingUpdates *int `json:"pending_updates,omitempty"`
	// Draining reports that the server is shedding new requests with 503.
	Draining bool `json:"draining,omitempty"`
	// Shard is present on shard servers (nrpserve -shard i/N): the slice of
	// the node space this process answers top-k queries over.
	Shard *ShardInfo `json:"shard,omitempty"`
}

// UpdateRequest is the /v1/update POST body: pairs of [source, target] to
// insert and to remove. Within one request, insertions and removals are
// applied in that order.
type UpdateRequest struct {
	Insert [][2]int `json:"insert,omitempty"`
	Remove [][2]int `json:"remove,omitempty"`
}

// UpdateResponse reports how many updates changed the graph and how many
// changes the serving index has not absorbed yet.
type UpdateResponse struct {
	Applied int `json:"applied"`
	Pending int `json:"pending"`
}

// RefreshResponse is the /v1/refresh response body: the refresh stats
// plus the (possibly new) index size.
type RefreshResponse struct {
	Mode          string  `json:"mode"`
	WarmStart     bool    `json:"warm_start,omitempty"`
	Fallback      bool    `json:"fallback,omitempty"`
	TouchedNodes  int     `json:"touched_nodes"`
	PushMass      float64 `json:"push_mass"`
	ResidualMass  float64 `json:"residual_mass"`
	AccumResidual float64 `json:"accum_residual"`
	ArcsChanged   int     `json:"arcs_changed"`
	ElapsedUs     int64   `json:"elapsed_us"`
	Nodes         int     `json:"nodes"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (sv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	version, revision := buildInfo()
	resp := HealthzResponse{
		Status:        "ok",
		Nodes:         sv.searcher.N(),
		Backend:       sv.cfg.Backend,
		Version:       version,
		Revision:      revision,
		UptimeSeconds: time.Since(sv.start).Seconds(),
		PPR:           sv.cfg.PPR != nil,
		Draining:      sv.draining.Load(),
		Shard:         sv.cfg.Shard,
	}
	if sv.live != nil {
		resp.Live = true
		pending := sv.live.Pending()
		resp.PendingUpdates = &pending
	}
	WriteJSON(w, http.StatusOK, resp)
}

// requireLive guards the update endpoints: a static server has no graph
// to mutate, which is the client's misunderstanding of the deployment,
// not a malformed request — hence 409.
func (sv *Server) requireLive(w http.ResponseWriter) bool {
	if sv.live == nil {
		WriteError(w, http.StatusConflict, "index is static: server was not started over a live graph")
		return false
	}
	return true
}

func (sv *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !sv.requireLive(w) {
		return
	}
	var req UpdateRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	total := len(req.Insert) + len(req.Remove)
	if total == 0 {
		WriteError(w, http.StatusBadRequest, `set at least one of "insert" and "remove"`)
		return
	}
	if total > sv.cfg.MaxBatch {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d updates exceeds limit %d", total, sv.cfg.MaxBatch))
		return
	}
	ups := make([]nrp.EdgeUpdate, 0, total)
	for _, batch := range []struct {
		pairs [][2]int
		op    nrp.UpdateOp
	}{
		{req.Insert, nrp.UpdateInsert},
		{req.Remove, nrp.UpdateRemove},
	} {
		for _, p := range batch.pairs {
			// Reject ids that int32 would silently wrap into range before
			// they reach the engine's [0, N) validation.
			if p[0] < 0 || p[0] > math.MaxInt32 || p[1] < 0 || p[1] > math.MaxInt32 {
				WriteError(w, http.StatusBadRequest, fmt.Sprintf("node id outside [0, %d] in pair [%d,%d]", math.MaxInt32, p[0], p[1]))
				return
			}
			ups = append(ups, nrp.EdgeUpdate{U: int32(p[0]), V: int32(p[1]), Op: batch.op})
		}
	}
	applied, err := sv.live.ApplyUpdates(r.Context(), ups)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			WriteError(w, http.StatusServiceUnavailable, "update cancelled: "+err.Error())
			return
		}
		// Update batches fail only on validation (ids out of range, bad op).
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, UpdateResponse{Applied: applied, Pending: sv.live.Pending()})
}

func (sv *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !sv.requireLive(w) {
		return
	}
	st, err := sv.live.Refresh(r.Context())
	if err != nil {
		writeQueryError(w, err)
		return
	}
	sv.metrics.ObserveRefresh(st)
	WriteJSON(w, http.StatusOK, RefreshResponse{
		Mode:          string(st.Mode),
		WarmStart:     st.WarmStart,
		Fallback:      st.Fallback,
		TouchedNodes:  st.TouchedNodes,
		PushMass:      st.PushMass,
		ResidualMass:  st.ResidualMass,
		AccumResidual: st.AccumResidual,
		ArcsChanged:   st.ArcsChanged,
		ElapsedUs:     st.Wall.Microseconds(),
		Nodes:         sv.live.N(),
	})
}

func (sv *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	req, us, ok := ParseTopK(w, r, sv.cfg.MaxBatch, sv.cfg.MaxK)
	if !ok {
		return
	}
	if ri := infoFrom(r.Context()); ri != nil {
		ri.k = req.K
		ri.batch = len(us)
	}
	sv.metrics.batchSize.Observe(float64(len(us)))

	var results []nrp.Result
	var err error
	if sv.coal != nil && len(us) == 1 {
		// The coalescer batches this call with its concurrent neighbors,
		// so validation the backend would do per-call must happen first:
		// one bad request must not fail the round it rides in.
		if req.K <= 0 {
			writeQueryError(w, fmt.Errorf("%w: k=%d", nrp.ErrInvalidK, req.K))
			return
		}
		if n := sv.searcher.N(); us[0] < 0 || us[0] >= n {
			writeQueryError(w, fmt.Errorf("%w: u=%d not in [0, %d)", nrp.ErrNodeOutOfRange, us[0], n))
			return
		}
		if ri := infoFrom(r.Context()); ri != nil {
			ri.coalesced = true
		}
		var res nrp.Result
		res, err = sv.coal.topK(r.Context(), us[0], req.K)
		results = []nrp.Result{res}
	} else {
		results, err = sv.searcher.TopKMany(r.Context(), us, req.K)
	}
	if err != nil {
		writeQueryError(w, err)
		return
	}
	resp := TopKResponse{K: req.K, Results: make([]ResultJSON, len(results))}
	for i, res := range results {
		rj := ResultJSON{
			U:         res.Source,
			Neighbors: make([]NeighborJSON, len(res.Neighbors)),
		}
		if req.Stats {
			rj.Stats = &StatsJSON{
				Scanned:   res.Stats.Scanned,
				Pruned:    res.Stats.Pruned,
				Reranked:  res.Stats.Reranked,
				ElapsedUs: res.Stats.Elapsed.Microseconds(),
			}
		}
		for j, nb := range res.Neighbors {
			rj.Neighbors[j] = NeighborJSON{Node: nb.Node, Score: nb.Score}
		}
		resp.Results[i] = rj
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (sv *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ScoreRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if len(req.Pairs) > sv.cfg.MaxBatch {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d pairs exceeds limit %d", len(req.Pairs), sv.cfg.MaxBatch))
		return
	}
	if ri := infoFrom(r.Context()); ri != nil {
		ri.batch = len(req.Pairs)
	}
	pairs := make([]nrp.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = nrp.Pair{U: p[0], V: p[1]}
	}
	scores, err := sv.searcher.ScoreMany(r.Context(), pairs)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, ScoreResponse{Scores: scores})
}

// PPRRequest is the /v1/ppr POST body. Alpha and Epsilon, when nonzero,
// override the engine defaults for this query.
type PPRRequest struct {
	Seeds   []int   `json:"seeds"`
	K       int     `json:"k,omitempty"`
	Alpha   float64 `json:"alpha,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
}

// PPRStatsJSON reports how one PPR query was answered.
type PPRStatsJSON struct {
	Rmax       float64 `json:"rmax"`
	Residual   float64 `json:"residual"`
	Walks      int64   `json:"walks"`
	Pushed     int     `json:"pushed"`
	Candidates int     `json:"candidates"`
	UsedIndex  bool    `json:"used_index"`
	PushUs     int64   `json:"push_us"`
	WalkUs     int64   `json:"walk_us"`
}

// PPRResponse is the /v1/ppr response body: the top-k nodes by estimated
// PPR from the seed set, descending.
type PPRResponse struct {
	K      int            `json:"k"`
	Scores []NeighborJSON `json:"scores"`
	Stats  PPRStatsJSON   `json:"stats"`
}

func (sv *Server) handlePPR(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if sv.cfg.PPR == nil {
		// Like /v1/update on a static server: the deployment has no graph
		// to query, which is not a malformed request — hence 409.
		WriteError(w, http.StatusConflict, "PPR is disabled: server was not started over a graph")
		return
	}
	var req PPRRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if len(req.Seeds) > sv.cfg.MaxBatch {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("seed set of %d exceeds limit %d", len(req.Seeds), sv.cfg.MaxBatch))
		return
	}
	if req.K == 0 {
		req.K = 10
	}
	if req.K > sv.cfg.MaxK {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("k=%d exceeds limit %d", req.K, sv.cfg.MaxK))
		return
	}
	if ri := infoFrom(r.Context()); ri != nil {
		ri.k = req.K
		ri.batch = len(req.Seeds)
	}
	q := nrp.PPRQuery{Seeds: req.Seeds, K: req.K, Alpha: req.Alpha, Epsilon: req.Epsilon}
	if sv.live != nil {
		// The current RCU snapshot: PPR answers on the updated topology as
		// soon as /v1/update returns, independent of index refreshes.
		q.Graph = sv.live.Dynamic().Graph()
	}
	res, err := sv.cfg.PPR.Query(r.Context(), q)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	resp := PPRResponse{
		K:      req.K,
		Scores: make([]NeighborJSON, len(res.Scores)),
		Stats: PPRStatsJSON{
			Rmax:       res.Stats.Rmax,
			Residual:   res.Stats.Residual,
			Walks:      res.Stats.Walks,
			Pushed:     res.Stats.Pushed,
			Candidates: res.Stats.Candidates,
			UsedIndex:  res.Stats.UsedIndex,
			PushUs:     res.Stats.PushTime.Microseconds(),
			WalkUs:     res.Stats.WalkTime.Microseconds(),
		},
	}
	for i, s := range res.Scores {
		resp.Scores[i] = NeighborJSON{Node: s.Node, Score: s.Score}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// writeQueryError maps Searcher errors onto HTTP statuses: the typed
// validation sentinels are the client's fault, cancellation means the
// server (or client) went away mid-query, anything else is a 500.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, nrp.ErrInvalidK) || errors.Is(err, nrp.ErrNodeOutOfRange),
		errors.Is(err, nrp.ErrEmptySeedSet) || errors.Is(err, nrp.ErrInvalidAlpha) || errors.Is(err, nrp.ErrInvalidEpsilon):
		WriteError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		WriteError(w, http.StatusServiceUnavailable, "query cancelled: "+err.Error())
	default:
		WriteError(w, http.StatusInternalServerError, err.Error())
	}
}

// Serve runs an HTTP server on ln until ctx is cancelled, then drains
// in-flight requests for up to drain before forcing connections closed.
// It returns nil on a clean (or drained) shutdown.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration) error {
	return serveHTTP(ctx, ln, h, drain, nil)
}

// Serve runs sv's handler on ln until ctx is cancelled, then flips the
// server into drain mode (new requests shed with 503, the drain gauge
// raised) while in-flight requests run to completion, for up to drain
// before forcing connections closed.
func (sv *Server) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	return serveHTTP(ctx, ln, sv.Handler(), drain, sv.BeginDrain)
}

func serveHTTP(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration, onDrain func()) error {
	srv := &http.Server{
		Handler: h,
		// Detach request contexts from ctx so that cancelling ctx starts
		// the drain without aborting in-flight queries; Shutdown waits for
		// them, and only a drain timeout force-closes their connections.
		BaseContext: func(net.Listener) context.Context { return context.WithoutCancel(ctx) },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if onDrain != nil {
		onDrain()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
		return fmt.Errorf("serve: drain timed out: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
