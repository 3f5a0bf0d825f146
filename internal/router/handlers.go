package router

import (
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/nrp-embed/nrp/internal/serve"
)

// HealthzResponse is the router's /v1/healthz body: fleet-level status
// plus one entry per shard. Status is "ok" when every shard is in
// rotation and "degraded" while any is out — load balancers should keep
// routing here either way (the router still answers), but alerting can
// key off the field or the nrp_router_degraded gauge.
type HealthzResponse struct {
	Status        string        `json:"status"`
	Nodes         int           `json:"nodes"`
	Backend       string        `json:"backend"`
	HealthyShards int           `json:"healthy_shards"`
	Shards        []ShardStatus `json:"shards"`
	UptimeSeconds float64       `json:"uptime_seconds"`
}

// ShardStatus is one shard's slice and rotation state.
type ShardStatus struct {
	URL     string `json:"url"`
	Index   int    `json:"index"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Healthy bool   `json:"healthy"`
}

// Handler returns the router's route table wrapped in the metrics and
// logging middleware. The surface is the read-only subset of a shard
// server's: healthz, topk (GET and POST batch), score and metrics. The
// write and PPR endpoints do not exist here — a sharded fleet serves
// static snapshots.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", rt.handleHealthz)
	mux.HandleFunc("/v1/topk", rt.handleTopK)
	mux.HandleFunc("/v1/score", rt.handleScore)
	mux.Handle("/metrics", rt.metrics.reg.Handler())
	return rt.instrument(mux)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := HealthzResponse{
		Status:        "ok",
		Nodes:         rt.n,
		Backend:       rt.backend,
		Shards:        make([]ShardStatus, len(rt.shards)),
		UptimeSeconds: time.Since(rt.start).Seconds(),
	}
	for i, sh := range rt.shards {
		ok := sh.healthy.Load()
		if ok {
			resp.HealthyShards++
		}
		resp.Shards[i] = ShardStatus{
			URL: sh.url, Index: sh.info.Index, Lo: sh.info.Lo, Hi: sh.info.Hi, Healthy: ok,
		}
	}
	if resp.HealthyShards < len(rt.shards) {
		resp.Status = "degraded"
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleTopK(w http.ResponseWriter, r *http.Request) {
	req, us, ok := serve.ParseTopK(w, r, rt.cfg.MaxBatch, rt.cfg.MaxK)
	if !ok {
		return
	}

	resp, err := rt.topKMany(r.Context(), us, req.K)
	if err != nil {
		var se *shardError
		if errors.As(err, &se) {
			serve.WriteError(w, se.status, se.msg)
			return
		}
		serve.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, ok := serve.ReadBody(w, r)
	if !ok {
		return
	}
	status, out, err := rt.forwardScore(r.Context(), body)
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(out)
}

// endpointLabel bounds the metric label space: unknown paths collapse
// into "other".
func endpointLabel(path string) string {
	switch path {
	case "/v1/healthz", "/v1/topk", "/v1/score":
		return strings.TrimPrefix(path, "/v1/")
	case "/metrics":
		return "metrics"
	default:
		return "other"
	}
}

// instrument wraps the route table with the in-flight gauge, latency
// histogram, request counter and one structured log line per call.
func (rt *Router) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		endpoint := endpointLabel(r.URL.Path)
		rec := &serve.StatusRecorder{ResponseWriter: w}
		rt.metrics.inflight.Inc()
		defer func() {
			rt.metrics.inflight.Dec()
			elapsed := time.Since(start)
			code := rec.Status()
			rt.metrics.requests.With(endpoint, strconv.Itoa(code)).Inc()
			rt.metrics.latency.With(endpoint).Observe(elapsed.Seconds())
			if rt.cfg.Logger != nil {
				rt.cfg.Logger.Log(r.Context(), serve.LogLevel(code), "request",
					"endpoint", endpoint, "method", r.Method, "status", code,
					"duration", elapsed, "healthy_shards", rt.healthyCount())
			}
		}()
		next.ServeHTTP(rec, r)
	})
}
