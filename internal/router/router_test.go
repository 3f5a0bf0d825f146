package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nrp-embed/nrp"
	"github.com/nrp-embed/nrp/internal/serve"
)

func testEmbedding(t *testing.T, n int) *nrp.Embedding {
	t.Helper()
	g, err := nrp.GenSBM(nrp.SBMConfig{N: n, M: 6 * n, Communities: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	opt := nrp.DefaultOptions()
	opt.Dim = 16
	emb, _, err := nrp.EmbedCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return emb
}

// flaky wraps a shard handler with a kill switch so tests can take a
// shard down (every request answers 500) and bring it back, without the
// port churn of restarting the httptest server. stall holds nanoseconds
// of delay consumed by the next /v1/topk call — the hedging test's slow
// first attempt.
type flaky struct {
	down  atomic.Bool
	stall atomic.Int64
	next  http.Handler
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		http.Error(w, `{"error":"shard down"}`, http.StatusInternalServerError)
		return
	}
	if r.URL.Path == "/v1/topk" {
		if d := f.stall.Swap(0); d > 0 {
			time.Sleep(time.Duration(d))
		}
	}
	f.next.ServeHTTP(w, r)
}

// startFleet boots count shard servers over slice-restricted searchers
// plus one unsharded reference server, all from the same embedding.
func startFleet(t *testing.T, emb *nrp.Embedding, backend nrp.Backend, count int) (urls []string, flakies []*flaky, ref *httptest.Server) {
	t.Helper()
	label := backend.String()
	for i := 0; i < count; i++ {
		s, err := nrp.BuildIndex(emb, nrp.WithBackend(backend), nrp.WithShardSlice(i, count))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := nrp.ShardRange(emb.N(), i, count)
		sv := serve.NewServer(s, serve.Config{
			Backend: label,
			Shard:   &serve.ShardInfo{Index: i, Count: count, Lo: lo, Hi: hi},
		})
		fl := &flaky{next: sv.Handler()}
		ts := httptest.NewServer(fl)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		flakies = append(flakies, fl)
	}
	full, err := nrp.BuildIndex(emb, nrp.WithBackend(backend))
	if err != nil {
		t.Fatal(err)
	}
	ref = httptest.NewServer(serve.NewServer(full, serve.Config{Backend: label}).Handler())
	t.Cleanup(ref.Close)
	return urls, flakies, ref
}

func newTestRouter(t *testing.T, urls []string, mutate func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Shards:         urls,
		Timeout:        2 * time.Second,
		HedgeAfter:     -1, // deterministic single attempts unless a test opts in
		HealthInterval: 50 * time.Millisecond,
		BootTimeout:    5 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func getTopK(t *testing.T, base string, query string) (*serve.TopKResponse, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/topk?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tk serve.TopKResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tk); err != nil {
			t.Fatal(err)
		}
	}
	return &tk, resp.StatusCode
}

func postTopK(t *testing.T, base, body string) (*serve.TopKResponse, int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/topk", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tk serve.TopKResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tk); err != nil {
			t.Fatal(err)
		}
	}
	return &tk, resp.StatusCode
}

// TestScatterGatherBitMatch is the acceptance property of the tentpole:
// for the exact-result backends, the router's merged answers over a
// healthy fleet are bit-identical (same nodes, same float64 scores after
// the same JSON round-trip) to a single unsharded server's — for GET
// single-source and POST batched queries alike.
func TestScatterGatherBitMatch(t *testing.T) {
	emb := testEmbedding(t, 130)
	for _, backend := range []nrp.Backend{nrp.BackendExact, nrp.BackendPruned} {
		for _, count := range []int{2, 3, 5} {
			urls, _, ref := startFleet(t, emb, backend, count)
			rt := newTestRouter(t, urls, nil)
			rts := httptest.NewServer(rt.Handler())

			for _, q := range []string{"u=0&k=1", "u=7&k=10", "u=129&k=200"} {
				got, code := getTopK(t, rts.URL, q)
				want, wantCode := getTopK(t, ref.URL, q)
				if code != wantCode || code != http.StatusOK {
					t.Fatalf("%v/%d %s: status %d want %d", backend, count, q, code, wantCode)
				}
				if got.Partial {
					t.Fatalf("%v/%d %s: healthy fleet answered partial", backend, count, q)
				}
				if !reflect.DeepEqual(got.Results, want.Results) {
					t.Fatalf("%v/%d %s:\nrouter %+v\nsingle %+v", backend, count, q, got.Results, want.Results)
				}
			}

			body := `{"us":[3,50,101,7],"k":12}`
			got, _ := postTopK(t, rts.URL, body)
			want, _ := postTopK(t, ref.URL, body)
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("%v/%d batch:\nrouter %+v\nsingle %+v", backend, count, got.Results, want.Results)
			}
			rts.Close()
		}
	}
}

// TestQuantizedDominance: the quantized backend's merged shortlists are
// a superset of the single-node shortlist, so per-rank exact scores can
// only improve through the router.
func TestQuantizedDominance(t *testing.T) {
	emb := testEmbedding(t, 130)
	urls, _, ref := startFleet(t, emb, nrp.BackendQuantized, 3)
	rt := newTestRouter(t, urls, nil)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	for _, u := range []int{0, 42, 129} {
		q := fmt.Sprintf("u=%d&k=10", u)
		got, _ := getTopK(t, rts.URL, q)
		want, _ := getTopK(t, ref.URL, q)
		g, w := got.Results[0].Neighbors, want.Results[0].Neighbors
		if len(g) != len(w) {
			t.Fatalf("u=%d: router %d results, single %d", u, len(g), len(w))
		}
		for r := range g {
			if g[r].Score < w[r].Score {
				t.Fatalf("u=%d rank %d: router %g below single-node %g", u, r, g[r].Score, w[r].Score)
			}
		}
	}
}

// TestDegradation is the second acceptance property: with one shard
// down the router still answers 200, flags the response partial, keeps
// the surviving shards' results correct, reports a degraded fleet — and
// heals back to complete answers once the shard returns.
func TestDegradation(t *testing.T) {
	emb := testEmbedding(t, 130)
	urls, flakies, _ := startFleet(t, emb, nrp.BackendExact, 3)
	rt := newTestRouter(t, urls, nil)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	flakies[1].down.Store(true)
	lo, hi := nrp.ShardRange(emb.N(), 1, 3)

	got, code := getTopK(t, rts.URL, "u=7&k=120")
	if code != http.StatusOK {
		t.Fatalf("degraded query status %d, want 200", code)
	}
	if !got.Partial {
		t.Fatal("one shard down: response not flagged partial")
	}
	for _, nb := range got.Results[0].Neighbors {
		if nb.Node >= lo && nb.Node < hi && nb.Node != 7 {
			t.Fatalf("dead shard's node %d in merged answer", nb.Node)
		}
	}

	// The fleet health surfaces everywhere an operator would look.
	resp, err := http.Get(rts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "degraded" || hz.HealthyShards != 2 {
		t.Fatalf("healthz %+v, want degraded with 2 healthy", hz)
	}
	page := rt.metrics.reg.String()
	if !strings.Contains(page, "nrp_router_degraded 1") {
		t.Fatalf("metrics page missing nrp_router_degraded 1:\n%s", page)
	}
	if !strings.Contains(page, "nrp_router_partial_responses_total 1") {
		t.Fatalf("metrics page missing partial counter:\n%s", page)
	}

	// Recovery: probe loop brings the shard back, answers are whole again.
	flakies[1].down.Store(false)
	rt.checkHealth(context.Background())
	got, _ = getTopK(t, rts.URL, "u=7&k=120")
	if got.Partial {
		t.Fatal("recovered fleet still answering partial")
	}
	found := false
	for _, nb := range got.Results[0].Neighbors {
		if nb.Node >= lo && nb.Node < hi {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("recovered shard's slice absent from merged answer")
	}
}

// TestAllShardsDown: with nothing to merge the router fails the query
// rather than fabricating an empty 200.
func TestAllShardsDown(t *testing.T) {
	emb := testEmbedding(t, 60)
	urls, flakies, _ := startFleet(t, emb, nrp.BackendExact, 2)
	rt := newTestRouter(t, urls, nil)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	for _, fl := range flakies {
		fl.down.Store(true)
	}
	_, code := getTopK(t, rts.URL, "u=0&k=5")
	if code != http.StatusBadGateway {
		t.Fatalf("all shards down: status %d, want 502", code)
	}
}

// TestClientErrorPropagation: 4xx answers are authoritative — the shard
// fleet validates identically, so the router forwards status and message
// without marking anything unhealthy.
func TestClientErrorPropagation(t *testing.T) {
	emb := testEmbedding(t, 60)
	urls, _, _ := startFleet(t, emb, nrp.BackendExact, 2)
	rt := newTestRouter(t, urls, nil)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	for q, want := range map[string]int{
		"u=999999&k=5": http.StatusBadRequest, // node out of range
		"u=0&k=-2":     http.StatusBadRequest, // invalid k
		"u=abc":        http.StatusBadRequest, // rejected at the router
	} {
		if _, code := getTopK(t, rts.URL, q); code != want {
			t.Fatalf("%s: status %d, want %d", q, code, want)
		}
	}
	if rt.healthyCount() != 2 {
		t.Fatal("client errors must not eject shards from rotation")
	}
}

// TestOversizedBodyRejected: the router bounds request bodies with the
// same limit as the shards behind it, on the endpoint it decodes (topk)
// and the one it forwards raw (score), and an oversized request is the
// client's fault — no shard leaves rotation.
func TestOversizedBodyRejected(t *testing.T) {
	emb := testEmbedding(t, 60)
	urls, _, _ := startFleet(t, emb, nrp.BackendExact, 2)
	rt := newTestRouter(t, urls, nil)
	h := rt.Handler()
	huge := `{"pad":"` + strings.Repeat("x", serve.MaxBodyBytes) + `"}`
	for _, path := range []string{"/v1/topk", "/v1/score"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(huge)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body answered %d, want 413: %s", path, rec.Code, rec.Body.String())
		}
	}
	if rt.healthyCount() != 2 {
		t.Fatal("an oversized request must not eject shards from rotation")
	}
}

// TestBootValidation: a fleet whose slices do not partition the node
// space is a deployment error rejected at boot.
func TestBootValidation(t *testing.T) {
	emb := testEmbedding(t, 60)

	// Two servers both claiming slice 0/2: index 1 is missing.
	s, err := nrp.BuildIndex(emb, nrp.WithShardSlice(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := nrp.ShardRange(emb.N(), 0, 2)
	mk := func() *httptest.Server {
		sv := serve.NewServer(s, serve.Config{
			Backend: "exact",
			Shard:   &serve.ShardInfo{Index: 0, Count: 2, Lo: lo, Hi: hi},
		})
		ts := httptest.NewServer(sv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := mk(), mk()
	_, err = New(context.Background(), Config{
		Shards:      []string{a.URL, b.URL},
		BootTimeout: 2 * time.Second,
	})
	if err == nil {
		t.Fatal("duplicate slice fleet accepted")
	}

	// A shard URL that never answers fails boot at the timeout.
	_, err = New(context.Background(), Config{
		Shards:      []string{a.URL, "http://127.0.0.1:1"},
		BootTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("unreachable shard accepted at boot")
	}

	// A single unsharded server is a valid 1-shard fleet.
	full, err := nrp.BuildIndex(emb)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(full, serve.Config{Backend: "exact"}).Handler())
	t.Cleanup(ts.Close)
	if _, err := New(context.Background(), Config{Shards: []string{ts.URL}}); err != nil {
		t.Fatalf("unsharded single server rejected: %v", err)
	}
}

// TestHedging: a shard whose first attempt stalls past the hedge delay
// gets a racing second attempt; the query still answers correctly and
// the hedge counter records it.
func TestHedging(t *testing.T) {
	emb := testEmbedding(t, 60)
	urls, flakies, ref := startFleet(t, emb, nrp.BackendExact, 2)

	rt := newTestRouter(t, urls, func(c *Config) {
		c.HedgeAfter = 20 * time.Millisecond
	})
	// Stall the next /v1/topk attempt on shard 0 past the hedge delay.
	flakies[0].stall.Store(int64(400 * time.Millisecond))
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	got, code := getTopK(t, rts.URL, "u=3&k=8")
	want, _ := getTopK(t, ref.URL, "u=3&k=8")
	if code != http.StatusOK || got.Partial {
		t.Fatalf("hedged query: status %d partial %v", code, got.Partial)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("hedged answer differs:\nrouter %+v\nsingle %+v", got.Results, want.Results)
	}
	if !strings.Contains(rt.metrics.reg.String(), `nrp_router_hedged_requests_total{shard="0"} 1`) {
		t.Fatalf("hedge not recorded:\n%s", rt.metrics.reg.String())
	}
}

// TestScoreForwarding: /v1/score answers are global (every shard loads
// the full embedding), so the router proxies them to any healthy shard
// and survives individual shard failures.
func TestScoreForwarding(t *testing.T) {
	emb := testEmbedding(t, 60)
	urls, flakies, ref := startFleet(t, emb, nrp.BackendExact, 3)
	rt := newTestRouter(t, urls, nil)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	flakies[0].down.Store(true)
	body := `{"pairs":[[0,1],[5,9],[59,0]]}`
	resp, err := http.Post(rts.URL+"/v1/score", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got serve.ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status %d", resp.StatusCode)
	}
	resp, err = http.Post(ref.URL+"/v1/score", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var want serve.ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("score through router %v, single-node %v", got, want)
	}
}

// TestQueryDuringShardRestart hammers the router with concurrent queries
// while one shard flaps down and up and the health loop runs at full
// tilt — under -race this is the concurrency soundness check for the
// shard state machine. Every response must be a decodable 200 (complete
// or partial); nothing may wedge or data-race.
func TestQueryDuringShardRestart(t *testing.T) {
	emb := testEmbedding(t, 90)
	urls, flakies, _ := startFleet(t, emb, nrp.BackendExact, 3)
	rt := newTestRouter(t, urls, func(c *Config) {
		c.HedgeAfter = 5 * time.Millisecond
		c.HealthInterval = 10 * time.Millisecond
	})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var loops sync.WaitGroup
	loops.Add(1)
	go func() { defer loops.Done(); rt.Run(ctx) }()
	loops.Add(1)
	go func() {
		defer loops.Done()
		for i := 0; ctx.Err() == nil; i++ {
			flakies[1].down.Store(i%2 == 0)
			time.Sleep(7 * time.Millisecond)
		}
		flakies[1].down.Store(false)
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				u := (w*37 + i*11) % emb.N()
				resp, err := http.Get(fmt.Sprintf("%s/v1/topk?u=%d&k=9", rts.URL, u))
				if err != nil {
					t.Errorf("query %d/%d: %v", w, i, err)
					return
				}
				var got serve.TopKResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("query %d/%d: status %d err %v", w, i, resp.StatusCode, err)
					return
				}
				if len(got.Results) != 1 || got.Results[0].U != u {
					t.Errorf("query %d/%d: malformed response %+v", w, i, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cancel()
	loops.Wait()
}
