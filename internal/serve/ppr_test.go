package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/nrp-embed/nrp"
)

// stubSearcher satisfies nrp.Searcher for servers whose tests exercise
// only /v1/ppr — it skips the embedding build, which matters for the
// large-graph allocation test.
type stubSearcher struct{ n int }

func (s stubSearcher) TopK(context.Context, int, int) ([]nrp.Neighbor, error) { return nil, nil }
func (s stubSearcher) TopKMany(context.Context, []int, int) ([]nrp.Result, error) {
	return nil, nil
}
func (s stubSearcher) ScoreMany(context.Context, []nrp.Pair) ([]float64, error) { return nil, nil }
func (s stubSearcher) N() int                                                   { return s.n }

func testPPRServer(t *testing.T, n, m int, cfg Config) http.Handler {
	t.Helper()
	g, err := nrp.GenSBM(nrp.SBMConfig{N: n, M: m, Communities: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := nrp.NewPPREngine(g, nrp.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg.PPR = pe
	return NewServer(stubSearcher{n: n}, cfg).Handler()
}

func TestPPREndpoint(t *testing.T) {
	h := testPPRServer(t, 300, 1500, Config{})

	rec, body := doJSON(t, h, http.MethodPost, "/v1/ppr", PPRRequest{Seeds: []int{1, 2, 250}, K: 7})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp PPRResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.K != 7 || len(resp.Scores) != 7 {
		t.Fatalf("got %d scores with k=%d, want 7", len(resp.Scores), resp.K)
	}
	if !sort.SliceIsSorted(resp.Scores, func(i, j int) bool {
		return resp.Scores[i].Score > resp.Scores[j].Score
	}) {
		t.Fatalf("scores not sorted descending: %+v", resp.Scores)
	}
	if resp.Stats.Rmax <= 0 || resp.Stats.Candidates == 0 {
		t.Fatalf("stats not populated: %+v", resp.Stats)
	}

	// k defaults to 10 when omitted.
	rec, body = doJSON(t, h, http.MethodPost, "/v1/ppr", PPRRequest{Seeds: []int{0}})
	if rec.Code != http.StatusOK {
		t.Fatalf("default-k status %d: %s", rec.Code, body)
	}
	resp = PPRResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Scores) != 10 {
		t.Fatalf("default k returned %d scores, want 10", len(resp.Scores))
	}

	// Per-query epsilon/alpha overrides are accepted.
	if rec, body := doJSON(t, h, http.MethodPost, "/v1/ppr", PPRRequest{Seeds: []int{5}, K: 3, Alpha: 0.3, Epsilon: 0.25}); rec.Code != http.StatusOK {
		t.Fatalf("override status %d: %s", rec.Code, body)
	}
}

func TestPPREndpointValidation(t *testing.T) {
	h := testPPRServer(t, 200, 900, Config{MaxK: 50, MaxBatch: 4})
	cases := []struct {
		name string
		body PPRRequest
	}{
		{"empty seed set", PPRRequest{K: 5}},
		{"out-of-range seed", PPRRequest{Seeds: []int{200}, K: 5}},
		{"negative seed", PPRRequest{Seeds: []int{-1}, K: 5}},
		{"negative k", PPRRequest{Seeds: []int{1}, K: -3}},
		{"k over MaxK", PPRRequest{Seeds: []int{1}, K: 51}},
		{"seeds over MaxBatch", PPRRequest{Seeds: []int{1, 2, 3, 4, 5}, K: 5}},
		{"bad alpha", PPRRequest{Seeds: []int{1}, K: 5, Alpha: 1.5}},
		{"bad epsilon", PPRRequest{Seeds: []int{1}, K: 5, Epsilon: -0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, body := doJSON(t, h, http.MethodPost, "/v1/ppr", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d: %s", rec.Code, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error body %q (%v)", body, err)
			}
		})
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/ppr", strings.NewReader("{nope"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", rec.Code)
	}
	if rec, _ := doJSON(t, h, http.MethodGet, "/v1/ppr", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET ppr status %d", rec.Code)
	}
}

func TestPPRDisabledConflicts(t *testing.T) {
	s, _ := testSearcher(t)
	h := NewServer(s, Config{}).Handler()
	rec, body := doJSON(t, h, http.MethodPost, "/v1/ppr", PPRRequest{Seeds: []int{1}, K: 5})
	if rec.Code != http.StatusConflict {
		t.Fatalf("ppr on a server without a graph: status %d: %s", rec.Code, body)
	}
}

// TestPPRHandlerReusesWorkspaces is the serving-layer pooling assertion:
// steady /v1/ppr traffic must not build an O(n) workspace per request —
// the engine's sync.Pool keeps one hot, and the handler only pays for
// JSON plumbing and the O(k) response. The invariant is asserted on the
// engine's own build counter rather than on MemStats.TotalAlloc, with the
// two ways a sync.Pool legitimately misses taken out of play: GC is pinned
// (a collection empties the pool) and the loop runs on one P (an item
// parked in another P's private slot is invisible to Get). Either is a
// property of the runtime, not a pooling regression.
func TestPPRHandlerReusesWorkspaces(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally drops items under the race detector")
	}
	const n = 20000
	g, err := nrp.GenSBM(nrp.SBMConfig{N: n, M: 60000, Communities: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := nrp.NewPPREngine(g, nrp.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(stubSearcher{n: n}, Config{PPR: pe}).Handler()

	do := func() {
		rec, body := doJSON(t, h, http.MethodPost, "/v1/ppr", PPRRequest{Seeds: []int{3, 7}, K: 10})
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, body)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Warm up: the first request builds the workspace.
	do()

	before := pe.WorkspaceBuilds()
	for i := 0; i < 50; i++ {
		do()
	}
	if built := pe.WorkspaceBuilds() - before; built != 0 {
		t.Fatalf("50 sequential /v1/ppr requests built %d workspaces, want 0; workspace pooling is broken", built)
	}
}

// TestPPRQueryDuringUpdateHammer drives concurrent /v1/ppr queries while
// /v1/update batches mutate the live graph — the race-detector run of
// this test is the proof that PPR-on-RCU-snapshots is data-race free, and
// every query must succeed mid-update.
func TestPPRQueryDuringUpdateHammer(t *testing.T) {
	g, err := nrp.GenSBM(nrp.SBMConfig{N: 150, M: 900, Communities: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	opt := nrp.DefaultOptions()
	opt.Dim = 16
	dyn, err := nrp.NewDynamicEmbedding(context.Background(), g, opt, nrp.DynamicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	live, err := nrp.NewLiveIndex(dyn, nrp.WithBackend(nrp.BackendExact))
	if err != nil {
		t.Fatal(err)
	}
	pe, err := nrp.NewPPREngine(dyn.Graph(), nrp.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	sv := NewLiveServer(live, Config{Backend: "exact", PPR: pe})
	h := sv.Handler()

	var (
		stop     atomic.Bool
		queries  atomic.Int64
		failures atomic.Int64
	)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Minimum iteration floor: on a single core the update loop can
			// finish before a worker is first scheduled.
			for i := 0; i < 10 || !stop.Load(); i++ {
				rec, body := doJSON(t, h, http.MethodPost, "/v1/ppr", PPRRequest{
					Seeds: []int{(w*31 + i) % 150, (w*17 + 2*i) % 150},
					K:     5,
				})
				queries.Add(1)
				if rec.Code != http.StatusOK {
					failures.Add(1)
					t.Errorf("ppr during update: status %d: %s", rec.Code, body)
					return
				}
			}
		}(w)
	}

	for round := 0; round < 8; round++ {
		req := UpdateRequest{
			Insert: [][2]int{{round, 100 + round}, {round + 1, 120 + round}},
		}
		if round > 0 {
			req.Remove = [][2]int{{round - 1, 100 + round - 1}}
		}
		rec, body := doJSON(t, h, http.MethodPost, "/v1/update", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("update round %d: status %d: %s", round, rec.Code, body)
		}
	}
	stop.Store(true)
	wg.Wait()
	if queries.Load() == 0 {
		t.Fatal("no PPR queries ran during the hammer")
	}
	if failures.Load() != 0 {
		t.Fatalf("%d of %d PPR queries failed during live updates", failures.Load(), queries.Load())
	}
}
