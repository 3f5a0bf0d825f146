package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nrp-embed/nrp"
)

func testSearcher(t *testing.T) (nrp.Searcher, *nrp.Embedding) {
	t.Helper()
	g, err := nrp.GenSBM(nrp.SBMConfig{N: 120, M: 700, Communities: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	opt := nrp.DefaultOptions()
	opt.Dim = 16
	emb, _, err := nrp.EmbedCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := nrp.BuildIndex(emb, nrp.WithBackend(nrp.BackendQuantized), nrp.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	return s, emb
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestHealthz(t *testing.T) {
	s, _ := testSearcher(t)
	h := NewServer(s, Config{Backend: "quantized"}).Handler()
	rec, body := doJSON(t, h, http.MethodGet, "/v1/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp HealthzResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Nodes != 120 || resp.Backend != "quantized" {
		t.Fatalf("healthz %+v", resp)
	}
	if rec, _ := doJSON(t, h, http.MethodPost, "/v1/healthz", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST healthz status %d", rec.Code)
	}
}

func TestTopKGetAndPost(t *testing.T) {
	s, _ := testSearcher(t)
	h := NewServer(s, Config{Backend: "quantized"}).Handler()

	rec, body := doJSON(t, h, http.MethodGet, "/v1/topk?u=5&k=3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET status %d: %s", rec.Code, body)
	}
	var resp TopKResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].U != 5 || len(resp.Results[0].Neighbors) != 3 {
		t.Fatalf("GET response %+v", resp)
	}
	if resp.Results[0].Stats != nil {
		t.Fatal("stats present without ?stats=1")
	}

	// ?stats=1 opts into the per-query work counters.
	rec, body = doJSON(t, h, http.MethodGet, "/v1/topk?u=5&k=3&stats=1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET stats status %d: %s", rec.Code, body)
	}
	resp = TopKResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Stats == nil || resp.Results[0].Stats.Scanned == 0 {
		t.Fatalf("stats not populated with ?stats=1: %s", body)
	}

	rec, body = doJSON(t, h, http.MethodPost, "/v1/topk", TopKRequest{Us: []int{1, 2, 3}, K: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("POST status %d: %s", rec.Code, body)
	}
	resp = TopKResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("batch returned %d results", len(resp.Results))
	}
	for i, want := range []int{1, 2, 3} {
		if resp.Results[i].U != want || len(resp.Results[i].Neighbors) != 4 {
			t.Fatalf("batch result %d: %+v", i, resp.Results[i])
		}
	}
}

func TestTopKBadRequests(t *testing.T) {
	s, _ := testSearcher(t)
	h := NewServer(s, Config{MaxK: 50, MaxBatch: 4}).Handler()
	u := 3
	cases := []struct {
		name   string
		method string
		path   string
		body   any
	}{
		{"non-integer u", http.MethodGet, "/v1/topk?u=zip", nil},
		{"non-integer k", http.MethodGet, "/v1/topk?u=1&k=zap", nil},
		{"neither u nor us", http.MethodPost, "/v1/topk", TopKRequest{K: 5}},
		{"both u and us", http.MethodPost, "/v1/topk", TopKRequest{U: &u, Us: []int{1}, K: 5}},
		{"k=0", http.MethodPost, "/v1/topk", TopKRequest{U: &u, K: 0}},
		{"k over MaxK", http.MethodPost, "/v1/topk", TopKRequest{U: &u, K: 51}},
		{"out-of-range node", http.MethodGet, "/v1/topk?u=120&k=5", nil},
		{"negative node", http.MethodGet, "/v1/topk?u=-1&k=5", nil},
		{"batch over MaxBatch", http.MethodPost, "/v1/topk", TopKRequest{Us: []int{1, 2, 3, 4, 5}, K: 5}},
		{"malformed json", http.MethodPost, "/v1/topk", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rec *httptest.ResponseRecorder
			var body []byte
			if tc.name == "malformed json" {
				req := httptest.NewRequest(tc.method, tc.path, strings.NewReader("{nope"))
				r := httptest.NewRecorder()
				h.ServeHTTP(r, req)
				rec, body = r, r.Body.Bytes()
			} else {
				rec, body = doJSON(t, h, tc.method, tc.path, tc.body)
			}
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d: %s", rec.Code, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error body %q (%v)", body, err)
			}
		})
	}
	if rec, _ := doJSON(t, h, http.MethodDelete, "/v1/topk", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status %d", rec.Code)
	}
}

func TestScore(t *testing.T) {
	s, emb := testSearcher(t)
	h := NewServer(s, Config{}).Handler()
	rec, body := doJSON(t, h, http.MethodPost, "/v1/score", ScoreRequest{Pairs: [][2]int{{0, 1}, {5, 9}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp ScoreResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Scores) != 2 || resp.Scores[0] != emb.Score(0, 1) || resp.Scores[1] != emb.Score(5, 9) {
		t.Fatalf("scores %+v", resp.Scores)
	}

	if rec, _ := doJSON(t, h, http.MethodPost, "/v1/score", ScoreRequest{Pairs: [][2]int{{0, 500}}}); rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range pair status %d", rec.Code)
	}
	if rec, _ := doJSON(t, h, http.MethodGet, "/v1/score", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET score status %d", rec.Code)
	}
}

// TestServeGracefulDrain boots a real listener, verifies it serves, then
// cancels the context and requires Serve to return cleanly within the
// drain window.
func TestServeGracefulDrain(t *testing.T) {
	s, _ := testSearcher(t)
	h := NewServer(s, Config{Backend: "quantized"}).Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, h, 5*time.Second) }()

	url := fmt.Sprintf("http://%s/v1/topk?u=2&k=4", ln.Addr())
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live query status %d: %s", resp.StatusCode, raw)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}

// --- live server (update/refresh) tests ----------------------------------

func testLiveServer(t *testing.T) (*Server, *nrp.LiveIndex) {
	t.Helper()
	g, err := nrp.GenSBM(nrp.SBMConfig{N: 150, M: 900, Communities: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	opt := nrp.DefaultOptions()
	opt.Dim = 16
	dyn, err := nrp.NewDynamicEmbedding(context.Background(), g, opt, nrp.DynamicConfig{
		Policy: nrp.RefreshIncremental,
	})
	if err != nil {
		t.Fatal(err)
	}
	live, err := nrp.NewLiveIndex(dyn, nrp.WithBackend(nrp.BackendExact))
	if err != nil {
		t.Fatal(err)
	}
	return NewLiveServer(live, Config{Backend: "exact"}), live
}

func TestUpdateRefreshEndpoints(t *testing.T) {
	sv, live := testLiveServer(t)
	h := sv.Handler()

	// Healthz reports the live flag.
	rec, body := doJSON(t, h, http.MethodGet, "/v1/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d: %s", rec.Code, body)
	}
	var hz HealthzResponse
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if !hz.Live || hz.PendingUpdates == nil || *hz.PendingUpdates != 0 {
		t.Fatalf("healthz %+v, want live with pending_updates present and 0", hz)
	}
	if !strings.Contains(string(body), `"pending_updates":0`) {
		t.Fatalf("healthz must serialize the healthy zero explicitly: %s", body)
	}

	// Apply a batch of insertions.
	rec, body = doJSON(t, h, http.MethodPost, "/v1/update", UpdateRequest{
		Insert: [][2]int{{0, 149}, {1, 148}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("update status %d: %s", rec.Code, body)
	}
	var ur UpdateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Applied != 2 || ur.Pending != 2 {
		t.Fatalf("update response %+v, want 2 applied 2 pending", ur)
	}

	// Refresh swaps the index.
	before := live.Searcher()
	rec, body = doJSON(t, h, http.MethodPost, "/v1/refresh", struct{}{})
	if rec.Code != http.StatusOK {
		t.Fatalf("refresh status %d: %s", rec.Code, body)
	}
	var rr RefreshResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Mode != "incremental" || rr.TouchedNodes == 0 || rr.Nodes != 150 {
		t.Fatalf("refresh response %+v", rr)
	}
	if live.Searcher() == before {
		t.Fatal("refresh endpoint did not swap the index")
	}

	// Queries still served.
	if rec, body := doJSON(t, h, http.MethodGet, "/v1/topk?u=0&k=5", nil); rec.Code != http.StatusOK {
		t.Fatalf("topk after refresh: status %d: %s", rec.Code, body)
	}
}

func TestUpdateEndpointValidation(t *testing.T) {
	sv, _ := testLiveServer(t)
	h := sv.Handler()
	cases := []struct {
		name string
		body any
		want int
	}{
		{"empty batch", UpdateRequest{}, http.StatusBadRequest},
		{"out of range", UpdateRequest{Insert: [][2]int{{0, 9999}}}, http.StatusBadRequest},
		{"negative id", UpdateRequest{Remove: [][2]int{{-1, 3}}}, http.StatusBadRequest},
		{"id wraps int32", UpdateRequest{Insert: [][2]int{{1 << 32, 5}}}, http.StatusBadRequest},
		{"oversized batch", UpdateRequest{Insert: make([][2]int, 5000)}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rec, body := doJSON(t, h, http.MethodPost, "/v1/update", tc.body); rec.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.want, body)
			}
		})
	}
	if rec, _ := doJSON(t, h, http.MethodGet, "/v1/update", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET update status %d", rec.Code)
	}
	if rec, _ := doJSON(t, h, http.MethodGet, "/v1/refresh", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET refresh status %d", rec.Code)
	}
	// Bad JSON body.
	req := httptest.NewRequest(http.MethodPost, "/v1/update", strings.NewReader("{nope"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", rec.Code)
	}
}

func TestUpdateOnStaticIndexConflicts(t *testing.T) {
	s, _ := testSearcher(t)
	h := NewServer(s, Config{Backend: "quantized"}).Handler()
	if rec, body := doJSON(t, h, http.MethodPost, "/v1/update", UpdateRequest{Insert: [][2]int{{0, 1}}}); rec.Code != http.StatusConflict {
		t.Fatalf("static update status %d: %s", rec.Code, body)
	}
	if rec, body := doJSON(t, h, http.MethodPost, "/v1/refresh", struct{}{}); rec.Code != http.StatusConflict {
		t.Fatalf("static refresh status %d: %s", rec.Code, body)
	}
	var hz HealthzResponse
	_, body := doJSON(t, h, http.MethodGet, "/v1/healthz", nil)
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Live || hz.PendingUpdates != nil {
		t.Fatal("static server reports live state")
	}
}

// TestZeroDowntimeOverHTTP runs a real listener and hammers /v1/topk from
// several client goroutines while update+refresh cycles swap the index:
// every query must come back 200.
func TestZeroDowntimeOverHTTP(t *testing.T) {
	sv, _ := testLiveServer(t)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	var (
		stop     atomic.Bool
		queries  atomic.Int64
		failures atomic.Int64
	)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; !stop.Load(); i++ {
				resp, err := client.Get(fmt.Sprintf("%s/v1/topk?u=%d&k=5", ts.URL, (w*37+i)%150))
				queries.Add(1)
				if err != nil {
					failures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}

	client := ts.Client()
	for round := 0; round < 5; round++ {
		body, _ := json.Marshal(UpdateRequest{Insert: [][2]int{{round, 100 + round}, {round + 1, 120 + round}}})
		resp, err := client.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update round %d: status %d", round, resp.StatusCode)
		}
		resp, err = client.Post(ts.URL+"/v1/refresh", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("refresh round %d: status %d", round, resp.StatusCode)
		}
	}
	stop.Store(true)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d queries failed during live swaps", failures.Load(), queries.Load())
	}
	if queries.Load() == 0 {
		t.Fatal("no queries ran")
	}
}

// TestOversizedBodyRejected: batch and k limits are only checkable after
// a body is decoded, so every POST endpoint must refuse to read past
// MaxBodyBytes — 413, before any of the payload is materialized as a
// request struct.
func TestOversizedBodyRejected(t *testing.T) {
	sv, _ := testLiveServer(t)
	live, ppr := sv.Handler(), testPPRServer(t, 300, 1500, Config{})
	// Well-formed JSON, so only the size can be the reason to refuse it.
	huge := `{"pad":"` + strings.Repeat("x", MaxBodyBytes) + `"}`
	for _, tc := range []struct {
		h    http.Handler
		path string
	}{
		{live, "/v1/topk"}, {live, "/v1/score"}, {live, "/v1/update"}, {ppr, "/v1/ppr"},
	} {
		rec := httptest.NewRecorder()
		tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(huge)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body answered %d, want 413: %s", tc.path, rec.Code, rec.Body.String())
		}
	}
}
