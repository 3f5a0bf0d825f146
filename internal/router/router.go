// Package router implements the scatter-gather layer of cmd/nrprouter: a
// stateless HTTP front for a fleet of nrpserve -shard i/N processes.
//
// Each shard serves top-k queries over one contiguous node-range slice of
// the same index snapshot. The router discovers the slices from the
// shards' /v1/healthz responses at boot, validates that they form a
// complete partition of [0, N), and then answers /v1/topk by fanning each
// query out to every healthy shard with the full k, merging the returned
// exact scores (score descending, node ascending — the backends' own
// order) and truncating to k. Because shard scores are exact float64 dot
// products and JSON round-trips them losslessly, the merged answer over
// healthy shards is bit-identical to a single unsharded server's for the
// exact and pruned backends, and rank-for-rank at least as good for the
// quantized backend (the union of per-slice shortlists is a superset of
// the global one).
//
// Failure handling: every shard call runs under a per-attempt timeout
// with one hedged retry — a second attempt fires when the first is slow
// (tail latency) or failed (transport error or 5xx). A shard that still
// fails is marked unhealthy (a background probe loop restores it) and
// the query degrades gracefully: the remaining shards' answers are
// merged and the response carries "partial": true, mirrored by the
// nrp_router_degraded gauge and nrp_router_partial_responses_total
// counter. Client errors (4xx) are authoritative — every shard would
// reject the same request the same way — and propagate immediately
// without retries.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nrp-embed/nrp/internal/serve"
)

// Config carries the router's deployment knobs.
type Config struct {
	// Shards are the base URLs of the shard servers, e.g.
	// ["http://10.0.0.1:8080", "http://10.0.0.2:8080"]. Order is
	// irrelevant; slices are discovered from /v1/healthz.
	Shards []string
	// Timeout bounds each individual shard request attempt (default 2s).
	Timeout time.Duration
	// HedgeAfter is how long to wait on a shard attempt before launching
	// a second, racing attempt (default Timeout/4; negative disables
	// hedging). Whichever attempt answers first wins.
	HedgeAfter time.Duration
	// HealthInterval is the period of the background shard health probe
	// (default 2s). A probe both restores shards marked unhealthy by
	// failed queries and retires shards that stopped answering.
	HealthInterval time.Duration
	// BootTimeout bounds how long New waits for all shards to come up and
	// advertise their slices (default 30s).
	BootTimeout time.Duration
	// MaxK and MaxBatch mirror the shard servers' request caps (defaults
	// 1000 and 1024): oversized requests are rejected at the router
	// before any fan-out.
	MaxK     int
	MaxBatch int
	// Logger, when non-nil, receives one structured line per request plus
	// shard-failure and health-transition events. Nil keeps the router
	// quiet — the default in tests.
	Logger *slog.Logger
	// Client overrides the HTTP client used for shard calls (tests). The
	// default is a dedicated client with sane connection pooling; the
	// per-attempt Timeout is applied via request contexts either way.
	Client *http.Client
}

const (
	defaultTimeout        = 2 * time.Second
	defaultHealthInterval = 2 * time.Second
	defaultBootTimeout    = 30 * time.Second
)

// shard is one backend process and its discovered slice.
type shard struct {
	url     string
	info    serve.ShardInfo
	healthy atomic.Bool
}

// Router scatter-gathers /v1/topk across a validated shard fleet.
type Router struct {
	cfg     Config
	client  *http.Client
	shards  []*shard // sorted by slice index
	n       int      // total nodes, from the shards' healthz
	backend string   // backend label, from the shards' healthz
	metrics *Metrics
	rr      atomic.Uint64 // round-robin cursor for /v1/score forwarding
	start   time.Time
}

// New probes every configured shard, validates that their advertised
// slices form a complete partition of the node space, and returns a
// Router ready to serve. It retries unreachable shards until BootTimeout
// so the fleet may come up in any order.
func New(ctx context.Context, cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: no shard URLs configured")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultTimeout
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = cfg.Timeout / 4
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = defaultHealthInterval
	}
	if cfg.BootTimeout <= 0 {
		cfg.BootTimeout = defaultBootTimeout
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 1000
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	rt := &Router{cfg: cfg, client: cfg.Client, start: time.Now()}
	if rt.client == nil {
		rt.client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if err := rt.discover(ctx); err != nil {
		return nil, err
	}
	rt.metrics = newMetrics(rt)
	return rt, nil
}

// discover collects every shard's healthz until all answer (or
// BootTimeout), then validates the partition.
func (rt *Router) discover(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.BootTimeout)
	defer cancel()
	shards := make([]*shard, len(rt.cfg.Shards))
	var lastErr error
	for {
		pending := 0
		for i, url := range rt.cfg.Shards {
			if shards[i] != nil {
				continue
			}
			hz, err := rt.probe(ctx, url)
			if err != nil {
				pending++
				lastErr = fmt.Errorf("shard %s: %w", url, err)
				continue
			}
			sh := &shard{url: url}
			if hz.Shard != nil {
				sh.info = *hz.Shard
			} else {
				// An unsharded server is a valid 1-shard fleet: it covers
				// the whole node space.
				sh.info = serve.ShardInfo{Index: 0, Count: 1, Lo: 0, Hi: hz.Nodes}
			}
			sh.healthy.Store(true)
			rt.n = hz.Nodes
			rt.backend = hz.Backend
			shards[i] = sh
		}
		if pending == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("router: %d shard(s) unreachable at boot: %w", pending, lastErr)
		case <-time.After(200 * time.Millisecond):
		}
	}
	return rt.validatePartition(shards)
}

// validatePartition checks that the discovered slices are exactly the
// ShardRange partition of [0, n): one shard per index, contiguous,
// covering, all over the same snapshot. Anything else is a deployment
// error worth failing loudly at boot instead of silently mis-merging.
func (rt *Router) validatePartition(shards []*shard) error {
	sort.Slice(shards, func(i, j int) bool { return shards[i].info.Index < shards[j].info.Index })
	next := 0
	for i, sh := range shards {
		in := sh.info
		if in.Count != len(shards) {
			return fmt.Errorf("router: shard %s advertises count %d, fleet has %d", sh.url, in.Count, len(shards))
		}
		if in.Index != i {
			return fmt.Errorf("router: shard index %d missing or duplicated (got %d from %s)", i, in.Index, sh.url)
		}
		if in.Lo != next || in.Hi < in.Lo || in.Hi > rt.n {
			return fmt.Errorf("router: shard %s slice [%d,%d) does not continue the partition at %d", sh.url, in.Lo, in.Hi, next)
		}
		next = in.Hi
	}
	if next != rt.n {
		return fmt.Errorf("router: shard slices cover [0,%d), index has %d nodes", next, rt.n)
	}
	rt.shards = shards
	return nil
}

// probe fetches one shard's healthz under the per-attempt timeout.
func (rt *Router) probe(ctx context.Context, url string) (*serve.HealthzResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	var hz serve.HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		return nil, err
	}
	return &hz, nil
}

// Run drives the background health loop until ctx is cancelled: each
// tick re-probes every shard, restoring ones that failed queries and
// retiring ones that stopped answering. cmd/nrprouter runs it alongside
// the HTTP server.
func (rt *Router) Run(ctx context.Context) {
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.checkHealth(ctx)
		}
	}
}

// checkHealth probes every shard once, concurrently.
func (rt *Router) checkHealth(ctx context.Context) {
	var wg sync.WaitGroup
	for _, sh := range rt.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			hz, err := rt.probe(ctx, sh.url)
			// A shard that answers but advertises a different slice (e.g.
			// restarted with the wrong flags) must not rejoin: its answers
			// would silently corrupt the merge.
			ok := err == nil && hz.Shard != nil && *hz.Shard == sh.info ||
				err == nil && hz.Shard == nil && sh.info.Count == 1
			if sh.healthy.CompareAndSwap(!ok, ok) && rt.cfg.Logger != nil {
				rt.cfg.Logger.Info("shard health changed", "shard", sh.url, "healthy", ok, "err", err)
			}
		}(sh)
	}
	wg.Wait()
}

// healthyCount returns how many shards are currently in the rotation.
func (rt *Router) healthyCount() int {
	c := 0
	for _, sh := range rt.shards {
		if sh.healthy.Load() {
			c++
		}
	}
	return c
}

// shardError is a shard's authoritative client-error answer (4xx):
// every shard validates identically, so the first one speaks for the
// fleet and the router forwards its status and message verbatim.
type shardError struct {
	status int
	msg    string
}

func (e *shardError) Error() string { return e.msg }

// fetchTopK runs one shard's /v1/topk call with per-attempt timeouts,
// hedging and one retry. body is the already-encoded request JSON.
func (rt *Router) fetchTopK(ctx context.Context, sh *shard, body []byte) (*serve.TopKResponse, error) {
	label := strconv.Itoa(sh.info.Index)
	type outcome struct {
		resp *serve.TopKResponse
		err  error
	}
	resc := make(chan outcome, 2)
	attempt := func() {
		start := time.Now()
		resp, err := rt.doTopK(ctx, sh, body)
		rt.metrics.shardLatency.With(label).Observe(time.Since(start).Seconds())
		resc <- outcome{resp, err}
	}
	go attempt()
	launched, failed := 1, 0
	var hedge <-chan time.Time
	if rt.cfg.HedgeAfter > 0 {
		// Stopped on return: below go 1.23 semantics an abandoned
		// time.After timer stays reachable until it fires, one per shard
		// call for HedgeAfter.
		t := time.NewTimer(rt.cfg.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	for {
		select {
		case out := <-resc:
			if out.err == nil {
				return out.resp, nil
			}
			var se *shardError
			if errors.As(out.err, &se) {
				return nil, out.err // authoritative 4xx: retrying cannot help
			}
			rt.metrics.shardErrors.With(label).Inc()
			failed++
			if launched < 2 {
				// Fast failure: retry immediately rather than waiting for
				// the hedge timer.
				launched++
				go attempt()
				continue
			}
			if failed == launched {
				return nil, out.err
			}
		case <-hedge:
			hedge = nil
			if launched < 2 {
				launched++
				rt.metrics.hedges.With(label).Inc()
				go attempt()
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// doTopK is a single shard request attempt.
func (rt *Router) doTopK(ctx context.Context, sh *shard, body []byte) (*serve.TopKResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.url+"/v1/topk", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg := readErrorMessage(resp.Body)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return nil, &shardError{status: resp.StatusCode, msg: msg}
		}
		return nil, fmt.Errorf("shard %s: status %d: %s", sh.url, resp.StatusCode, msg)
	}
	var tk serve.TopKResponse
	if err := json.NewDecoder(resp.Body).Decode(&tk); err != nil {
		return nil, fmt.Errorf("shard %s: bad response: %w", sh.url, err)
	}
	return &tk, nil
}

func readErrorMessage(r io.Reader) string {
	var er struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(r, 1<<16)).Decode(&er); err == nil && er.Error != "" {
		return er.Error
	}
	return "unreadable error body"
}

// topKMany scatter-gathers one (possibly batched) top-k query. The
// returned response is complete when every shard answered; otherwise it
// merges what arrived and sets Partial. An error is returned only when
// no shard produced an answer, or a shard rejected the request as
// malformed (shardError, forwarded verbatim).
func (rt *Router) topKMany(ctx context.Context, us []int, k int) (*serve.TopKResponse, error) {
	body, err := json.Marshal(serve.TopKRequest{Us: us, K: k})
	if err != nil {
		return nil, err
	}
	type gathered struct {
		resp *serve.TopKResponse
		err  error
	}
	results := make([]gathered, len(rt.shards))
	skipped := 0
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		if !sh.healthy.Load() {
			skipped++
			results[i].err = fmt.Errorf("shard %s: out of rotation", sh.url)
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			resp, err := rt.fetchTopK(ctx, sh, body)
			if err != nil {
				var se *shardError
				if !errors.As(err, &se) {
					// Transport-level failure after retry: pull the shard
					// out of rotation until the health loop clears it.
					sh.healthy.Store(false)
					if rt.cfg.Logger != nil {
						rt.cfg.Logger.Warn("shard failed, marked unhealthy", "shard", sh.url, "err", err)
					}
				}
			}
			results[i] = gathered{resp, err}
		}(i, sh)
	}
	wg.Wait()

	answered := 0
	var lastErr error
	for i, g := range results {
		if g.err == nil && len(g.resp.Results) != len(us) {
			// A malformed shard answer must degrade the query, not panic
			// the merge.
			g.err = fmt.Errorf("shard %s: %d results for %d sources", rt.shards[i].url, len(g.resp.Results), len(us))
			results[i] = g
		}
		switch {
		case g.err == nil:
			answered++
		default:
			var se *shardError
			if errors.As(g.err, &se) {
				return nil, g.err
			}
			lastErr = g.err
		}
	}
	if answered == 0 {
		if lastErr == nil {
			lastErr = errors.New("no healthy shards")
		}
		return nil, fmt.Errorf("router: no shard answered: %w", lastErr)
	}

	// Merge per source: concatenate the shards' neighbor lists — each
	// already sorted by (score desc, node asc) over disjoint node ranges —
	// re-sort by the same rule and keep the global top k. Scores are the
	// shards' exact float64 values round-tripped through JSON, so on a
	// fully-answered query this reproduces the single-node result.
	resp := &serve.TopKResponse{K: k, Partial: answered < len(rt.shards)}
	resp.Results = make([]serve.ResultJSON, len(us))
	for qi, u := range us {
		merged := make([]serve.NeighborJSON, 0, k*answered)
		for _, g := range results {
			if g.err != nil {
				continue
			}
			merged = append(merged, g.resp.Results[qi].Neighbors...)
		}
		sort.Slice(merged, func(a, b int) bool {
			if merged[a].Score != merged[b].Score {
				return merged[a].Score > merged[b].Score
			}
			return merged[a].Node < merged[b].Node
		})
		if len(merged) > k {
			merged = merged[:k]
		}
		resp.Results[qi] = serve.ResultJSON{U: u, Neighbors: merged}
	}
	if resp.Partial {
		rt.metrics.partials.Inc()
	}
	return resp, nil
}

// forwardScore proxies /v1/score to one healthy shard: scores are global
// exact dot products (every shard loads the full embedding), so any
// shard answers authoritatively. Round-robin spreads the load; on
// transport failure the next healthy shard is tried.
func (rt *Router) forwardScore(ctx context.Context, body []byte) (int, []byte, error) {
	tried := 0
	for tried < len(rt.shards) {
		sh := rt.shards[int(rt.rr.Add(1))%len(rt.shards)]
		if !sh.healthy.Load() {
			tried++
			continue
		}
		status, out, err := rt.doScore(ctx, sh, body)
		if err == nil {
			return status, out, nil
		}
		rt.metrics.shardErrors.With(strconv.Itoa(sh.info.Index)).Inc()
		sh.healthy.Store(false)
		tried++
	}
	return 0, nil, errors.New("router: no healthy shard for /v1/score")
}

func (rt *Router) doScore(ctx context.Context, sh *shard, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.url+"/v1/score", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := rt.client.Do(req)
	rt.metrics.shardLatency.With(strconv.Itoa(sh.info.Index)).Observe(time.Since(start).Seconds())
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		return 0, nil, fmt.Errorf("shard %s: status %d", sh.url, resp.StatusCode)
	}
	out, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}
