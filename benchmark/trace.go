package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"github.com/nrp-embed/nrp"
	"github.com/nrp-embed/nrp/internal/serve"
)

// The traced run replays generated requests against in-process copies of
// the serving layers and records a span around each call into a layer's
// public function. Nothing inside the program is instrumented: a span's
// parent travels in the request context within a process and in a header
// across the loopback hop.

const spanHeader = "X-Bench-Span"

type spanRef struct{ id, req int }

type spanKey struct{}

func withSpan(ctx context.Context, s spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) spanRef {
	s, _ := ctx.Value(spanKey{}).(spanRef)
	return s
}

func (s spanRef) header() string { return fmt.Sprintf("%d/%d", s.id, s.req) }

func parseSpanHeader(h string) (s spanRef) {
	_, _ = fmt.Sscanf(h, "%d/%d", &s.id, &s.req) // an absent header leaves the zero ref: a root
	return s
}

// tracedSearcher wraps the index layer's public query functions.
type tracedSearcher struct {
	nrp.Searcher
	rec *recorder
}

func (t *tracedSearcher) TopK(ctx context.Context, u, k int) ([]nrp.Neighbor, error) {
	p := spanFrom(ctx)
	id := t.rec.start("index.topk", p.id, p.req)
	defer t.rec.end(id)
	return t.Searcher.TopK(ctx, u, k)
}

func (t *tracedSearcher) TopKMany(ctx context.Context, us []int, k int) ([]nrp.Result, error) {
	p := spanFrom(ctx)
	id := t.rec.start("index.topkmany", p.id, p.req)
	defer t.rec.end(id)
	return t.Searcher.TopKMany(ctx, us, k)
}

func (t *tracedSearcher) ScoreMany(ctx context.Context, pairs []nrp.Pair) ([]float64, error) {
	p := spanFrom(ctx)
	id := t.rec.start("index.scoremany", p.id, p.req)
	defer t.rec.end(id)
	return t.Searcher.ScoreMany(ctx, pairs)
}

// tracedHandler wraps a layer's http.Handler: one span per request, child
// of the span named in the request's header.
func tracedHandler(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := parseSpanHeader(r.Header.Get(spanHeader))
		id := rec.start(name, p.id, p.req)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), spanRef{id, p.req})))
		rec.end(id)
	})
}

// tracedTransport is the router's shard client: one span per shard call,
// open until the response body has been read, plus the bytes that came
// back. Calls outside a traced request (boot discovery) are not recorded.
type tracedTransport struct {
	rec   *recorder
	base  http.RoundTripper
	bytes atomic.Int64
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := spanFrom(req.Context())
	if p.id == 0 {
		return t.base.RoundTrip(req)
	}
	id := t.rec.start("router.shard_call", p.id, p.req)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, spanRef{id, p.req}.header())
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(n int64) {
		t.bytes.Add(n)
		t.rec.end(id)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	n    int64
	done func(int64)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err != nil && b.done != nil {
		b.done(b.n)
		b.done = nil
	}
	return n, err
}

func (b *spanBody) Close() error {
	if b.done != nil {
		b.done(b.n)
		b.done = nil
	}
	return b.ReadCloser.Close()
}

// quietLogger mirrors the binaries' default logging (one structured line
// per request at info level) without the terminal: the in-process copy
// pays for formatting the line as the real server does.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// listenAndServe runs h on a loopback port with the same http.Server
// settings the binaries use, until stop is called.
func listenAndServe(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = serve.Serve(ctx, ln, h, time.Second) // returns nil after the drain; a bind error cannot occur on an open listener
	}()
	return "http://" + ln.Addr().String(), func() { cancel(); <-done }, nil
}

// replay sends reqs one after another (no queueing: these are service
// times) with a root span around each, and returns how many failed.
func replay(rec *recorder, c *loadClient, reqs []request) (failed int) {
	var buf bytes.Buffer
	for i := range reqs {
		id := rec.start("client.request", 0, i+1)
		ref := spanRef{id, i + 1}.header()
		c.decorate = func(r *http.Request) { r.Header.Set(spanHeader, ref) }
		done, ok := c.do(&reqs[i], &buf)
		rec.endAt(id, done) // the answer's arrival, before the harness checked it
		if !ok {
			failed++
		}
	}
	c.decorate = nil
	return failed
}

// reqSpans indexes one replay's spans: per request number, per span name,
// the durations recorded (a fan-out records several under one name).
type reqSpans map[int]map[string][]time.Duration

func groupByRequest(spans []span) reqSpans {
	out := reqSpans{}
	for _, s := range spans {
		if s.Req == 0 {
			continue
		}
		if out[s.Req] == nil {
			out[s.Req] = map[string][]time.Duration{}
		}
		out[s.Req][s.Name] = append(out[s.Req][s.Name], s.dur())
	}
	return out
}

func longest(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocsPerRequest serves path n times straight into a recorder and
// returns the handler's heap allocations and bytes per request, net of
// what building the request and recorder costs the harness itself.
func allocsPerRequest(h http.Handler, method, path string, body []byte, n int) (allocs, bytesPer uint64) {
	loop := func(h http.Handler) (uint64, uint64) {
		one := func() {
			var rd io.Reader
			if body != nil {
				rd = bytes.NewReader(body)
			}
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, rd))
		}
		for i := 0; i < 20; i++ {
			one()
		}
		var a, b runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&a)
		for i := 0; i < n; i++ {
			one()
		}
		runtime.ReadMemStats(&b)
		return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
	}
	baseN, baseB := loop(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	gotN, gotB := loop(h)
	return (gotN - min(gotN, baseN)) / uint64(n), (gotB - min(gotB, baseB)) / uint64(n)
}

// printSelfTimes writes, for everything the traced run recorded, the self
// time summed by layer (the part of a span's name before the first dot).
func printSelfTimes(spans []span) {
	self := layerSelf(spans)
	layers := make([]string, 0, len(self))
	var total time.Duration
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Strings(layers)
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "all %d recorded spans\tself ms\tshare\n", len(spans))
	for _, l := range layers {
		fmt.Fprintf(tw, "  %s\t%.1f\t%.1f%%\n", l, millis(self[l]), 100*float64(self[l])/float64(total))
	}
	tw.Flush()
}

// printLayerTable writes the additivity check to stderr: the independently
// measured time of each layer for one request class, their sum, and the
// end-to-end number the sum is held against.
func printLayerTable(title string, self map[string]float64, unit string, reference float64, refName string) (unaccounted float64) {
	layers := make([]string, 0, len(self))
	sum := 0.0
	for l, v := range self {
		layers = append(layers, l)
		sum += v
	}
	sort.Strings(layers)
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tself %s\tshare\n", title, unit)
	for _, l := range layers {
		fmt.Fprintf(tw, "  %s\t%.1f\t%.1f%%\n", l, self[l], 100*self[l]/sum)
	}
	unaccounted = (reference - sum) / reference
	fmt.Fprintf(tw, "  sum of layers\t%.1f\t\n  %s\t%.1f\t\n  unaccounted\t%.1f\t%.1f%%\n",
		sum, refName, reference, reference-sum, 100*unaccounted)
	tw.Flush()
	return unaccounted
}
