package serve

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// endpointLabel maps a request path onto the bounded metric label set —
// unknown paths collapse into "other" so clients probing random URLs
// cannot grow the label space without bound.
func endpointLabel(path string) string {
	switch path {
	case "/v1/healthz", "/v1/topk", "/v1/score", "/v1/ppr", "/v1/update", "/v1/refresh":
		return strings.TrimPrefix(path, "/v1/")
	case "/metrics":
		return "metrics"
	default:
		return "other"
	}
}

// reqInfo rides the request context so handlers can annotate the
// middleware's log line and metrics with request-shape details.
type reqInfo struct {
	k         int  // top-k requested (-1 when not a topk/ppr call)
	batch     int  // sources in the batch (topk), pairs (score), seeds (ppr)
	coalesced bool // served through the coalescer
}

type reqInfoKey struct{}

func infoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// exemptFromGating reports whether a path bypasses drain 503s and rate
// limiting: health checks must answer while draining (that is how a load
// balancer learns to stop routing here) and scrapes must never be shed.
func exemptFromGating(path string) bool {
	return path == "/metrics" || path == "/v1/healthz"
}

// instrument wraps the route table with the full observability and
// protection chain: in-flight gauge, latency histogram, request counter,
// one structured log line per call, drain gating, and (when configured)
// per-client rate limiting.
func (sv *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		endpoint := endpointLabel(r.URL.Path)
		ri := &reqInfo{k: -1}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri))
		rec := &StatusRecorder{ResponseWriter: w}

		sv.metrics.inflight.Inc()
		defer func() {
			sv.metrics.inflight.Dec()
			elapsed := time.Since(start)
			code := rec.Status()
			sv.metrics.requests.With(endpoint, strconv.Itoa(code)).Inc()
			sv.metrics.latency.With(endpoint).Observe(elapsed.Seconds())
			sv.logRequest(r, endpoint, code, elapsed, ri)
		}()

		switch {
		case sv.draining.Load() && !exemptFromGating(r.URL.Path):
			WriteError(rec, http.StatusServiceUnavailable, "server is draining")
		case sv.limiter != nil && !exemptFromGating(r.URL.Path):
			if retry, ok := sv.limiter.allow(clientKey(r)); !ok {
				sv.metrics.rateLimited.Inc()
				rec.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
				WriteError(rec, http.StatusTooManyRequests, "rate limit exceeded")
			} else {
				next.ServeHTTP(rec, r)
			}
		default:
			next.ServeHTTP(rec, r)
		}
	})
}

func (sv *Server) logRequest(r *http.Request, endpoint string, code int, elapsed time.Duration, ri *reqInfo) {
	if sv.cfg.Logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("endpoint", endpoint),
		slog.String("method", r.Method),
		slog.Int("status", code),
		slog.Duration("duration", elapsed),
		slog.String("client", clientKey(r)),
	}
	if ri.k >= 0 {
		attrs = append(attrs, slog.Int("k", ri.k))
	}
	if ri.batch > 0 {
		attrs = append(attrs, slog.Int("batch", ri.batch))
	}
	if ri.coalesced {
		attrs = append(attrs, slog.Bool("coalesced", true))
	}
	sv.cfg.Logger.LogAttrs(r.Context(), LogLevel(code), "request", attrs...)
}

// clientKey identifies a client for rate limiting and logging: the
// connection's source IP, without the ephemeral port.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds renders a wait as a whole-second Retry-After value,
// rounding up so clients that honor it exactly do not immediately 429
// again.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
