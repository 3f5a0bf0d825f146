package nrp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// recallAt computes |got ∩ want| / |want| over the node ids.
func recallAt(got, want []Neighbor) float64 {
	if len(want) == 0 {
		return 1
	}
	in := make(map[int]bool, len(want))
	for _, nb := range want {
		in[nb.Node] = true
	}
	hits := 0
	for _, nb := range got {
		if in[nb.Node] {
			hits++
		}
	}
	return float64(hits) / float64(len(want))
}

// TestBackendsMatchExact is the cross-backend contract: on an SBM
// embedding, the pruned backend must reproduce the exact backend's top-k
// bit-for-bit, and the quantized backend must hold aggregate recall@k of
// at least 0.99 with exact (re-ranked) scores on the hits.
func TestBackendsMatchExact(t *testing.T) {
	emb := testEmbedding(t, 600)
	ctx := context.Background()
	exact := mustBuildIndex(t, emb)
	rng := rand.New(rand.NewSource(11))

	cases := []struct {
		name      string
		backend   Backend
		shards    int
		minRecall float64
		exactTies bool // results must equal the exact backend's exactly
		extra     []IndexOption
	}{
		{"exact/1shard", BackendExact, 1, 1, true, nil},
		{"exact/4shards", BackendExact, 4, 1, true, nil},
		{"pruned/1shard", BackendPruned, 1, 1, true, nil},
		{"pruned/4shards", BackendPruned, 4, 1, true, nil},
		{"quantized/1shard", BackendQuantized, 1, 0.99, false, nil},
		{"quantized/4shards", BackendQuantized, 4, 0.99, false, nil},
		{"hnsw", BackendHNSW, 1, 0.95, false, nil},
		{"hnsw/quantcoarse", BackendHNSW, 1, 0.95, false,
			[]IndexOption{WithHNSWQuantized(true), WithRerank(4)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]IndexOption{WithBackend(tc.backend), WithShards(tc.shards)}, tc.extra...)
			s, err := BuildIndex(emb, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var hits, total float64
			for trial := 0; trial < 25; trial++ {
				u := rng.Intn(emb.N())
				k := 1 + rng.Intn(15)
				want, err := exact.TopK(ctx, u, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.TopK(ctx, u, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("u=%d k=%d: got %d results, want %d", u, k, len(got), len(want))
				}
				if tc.exactTies {
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("u=%d k=%d rank %d: got %+v want %+v", u, k, i, got[i], want[i])
						}
					}
				}
				hits += recallAt(got, want) * float64(len(want))
				total += float64(len(want))
			}
			if recall := hits / total; recall < tc.minRecall {
				t.Fatalf("aggregate recall %.4f < %.2f", recall, tc.minRecall)
			}
		})
	}
}

// TestBackendQueryStats pins the instrumentation semantics per backend.
func TestBackendQueryStats(t *testing.T) {
	emb := testEmbedding(t, 400)
	ctx := context.Background()
	n := emb.N()

	for _, backend := range []Backend{BackendExact, BackendQuantized, BackendPruned, BackendHNSW} {
		s, err := BuildIndex(emb, WithBackend(backend), WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.TopKMany(ctx, []int{3, 77}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 {
			t.Fatalf("%v: %d results", backend, len(res))
		}
		for _, r := range res {
			st := r.Stats
			switch backend {
			case BackendExact:
				if st.Scanned != n-1 || st.Pruned != 0 || st.Reranked != 0 {
					t.Fatalf("exact stats %+v", st)
				}
			case BackendQuantized:
				if st.Scanned != n-1 || st.Reranked == 0 || st.Reranked > 4*10*4 {
					t.Fatalf("quantized stats %+v", st)
				}
			case BackendPruned:
				// Scanned candidates + pruned positions must cover the space
				// (the self node is skipped without being counted as either).
				if st.Scanned+st.Pruned != n-1 && st.Scanned+st.Pruned != n {
					t.Fatalf("pruned stats %+v don't cover n=%d", st, n)
				}
			case BackendHNSW:
				// The graph search scores only the nodes the beam visits;
				// no pruning counters, no rerank without the quantized
				// coarse stage.
				if st.Scanned == 0 || st.Pruned != 0 || st.Reranked != 0 {
					t.Fatalf("hnsw stats %+v", st)
				}
			}
			if st.Elapsed <= 0 {
				t.Fatalf("%v: no elapsed time recorded", backend)
			}
			if len(r.Neighbors) != 10 {
				t.Fatalf("%v: %d neighbors", backend, len(r.Neighbors))
			}
		}
	}
}

// TestTopKManyMatchesTopK checks batch answers equal single-query answers
// and that batch validation uses the typed sentinels.
func TestTopKManyMatchesTopK(t *testing.T) {
	emb := testEmbedding(t, 300)
	ctx := context.Background()
	for _, backend := range []Backend{BackendExact, BackendQuantized, BackendPruned, BackendHNSW} {
		s, err := BuildIndex(emb, WithBackend(backend), WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		us := []int{0, 5, 299, 123, 5}
		res, err := s.TopKMany(ctx, us, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range us {
			want, err := s.TopK(ctx, u, 7)
			if err != nil {
				t.Fatal(err)
			}
			if res[i].Source != u {
				t.Fatalf("%v: result %d source %d", backend, i, res[i].Source)
			}
			for j := range want {
				if res[i].Neighbors[j] != want[j] {
					t.Fatalf("%v u=%d rank %d: batch %+v single %+v", backend, u, j, res[i].Neighbors[j], want[j])
				}
			}
		}
		if _, err := s.TopKMany(ctx, []int{0, 300}, 7); !errors.Is(err, ErrNodeOutOfRange) {
			t.Fatalf("%v: out-of-range batch error = %v", backend, err)
		}
		if _, err := s.TopKMany(ctx, []int{0}, 0); !errors.Is(err, ErrInvalidK) {
			t.Fatalf("%v: k=0 batch error = %v", backend, err)
		}
		if empty, err := s.TopKMany(ctx, nil, 5); err != nil || len(empty) != 0 {
			t.Fatalf("%v: empty batch: %v %v", backend, empty, err)
		}
	}
}

// TestTypedSentinelErrors pins the satellite contract: invalid queries
// report ErrInvalidK / ErrNodeOutOfRange through errors.Is on every
// backend and entry point.
func TestTypedSentinelErrors(t *testing.T) {
	emb := testEmbedding(t, 50)
	ctx := context.Background()
	for _, backend := range []Backend{BackendExact, BackendQuantized, BackendPruned, BackendHNSW} {
		s, err := BuildIndex(emb, WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.TopK(ctx, -1, 5); !errors.Is(err, ErrNodeOutOfRange) {
			t.Fatalf("%v: negative source error = %v", backend, err)
		}
		if _, err := s.TopK(ctx, 50, 5); !errors.Is(err, ErrNodeOutOfRange) {
			t.Fatalf("%v: out-of-range source error = %v", backend, err)
		}
		if _, err := s.TopK(ctx, 0, 0); !errors.Is(err, ErrInvalidK) {
			t.Fatalf("%v: k=0 error = %v", backend, err)
		}
		if _, err := s.ScoreMany(ctx, []Pair{{0, 50}}); !errors.Is(err, ErrNodeOutOfRange) {
			t.Fatalf("%v: ScoreMany error = %v", backend, err)
		}
	}
}

// TestConcurrentQueriesSharedIndex hammers one shared Searcher per
// backend from many goroutines mixing TopK, TopKMany and ScoreMany —
// the -race CI job turns any unsynchronized state into a failure.
func TestConcurrentQueriesSharedIndex(t *testing.T) {
	emb := testEmbedding(t, 300)
	ctx := context.Background()
	exact := mustBuildIndex(t, emb, WithShards(1))
	want := make(map[int][]Neighbor)
	for u := 0; u < 8; u++ {
		nbrs, err := exact.TopK(ctx, u, 5)
		if err != nil {
			t.Fatal(err)
		}
		want[u] = nbrs
	}

	for _, backend := range []Backend{BackendExact, BackendQuantized, BackendPruned, BackendHNSW} {
		s, err := BuildIndex(emb, WithBackend(backend), WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		exactBackend := backend == BackendExact || backend == BackendPruned
		var wg sync.WaitGroup
		errc := make(chan error, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for iter := 0; iter < 20; iter++ {
					u := (g + iter) % 8
					nbrs, err := s.TopK(ctx, u, 5)
					if err != nil {
						errc <- err
						return
					}
					if exactBackend {
						for i := range nbrs {
							if nbrs[i] != want[u][i] {
								errc <- errors.New("concurrent TopK diverged from sequential answer")
								return
							}
						}
					}
					if _, err := s.TopKMany(ctx, []int{u, (u + 1) % 8}, 5); err != nil {
						errc <- err
						return
					}
					if _, err := s.ScoreMany(ctx, []Pair{{u, (u + 3) % 300}}); err != nil {
						errc <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatalf("%v: %v", backend, err)
		}
	}
}

// TestIndexSnapshotRoundTrip saves each backend and reloads it, requiring
// identical answers, preserved configuration, and working overrides.
func TestIndexSnapshotRoundTrip(t *testing.T) {
	emb := testEmbedding(t, 250)
	ctx := context.Background()
	// Each backend with the serving options that are valid for it
	// (WithRerank only where an approximate scoring pass exists).
	cases := []struct {
		backend Backend
		extra   []IndexOption
	}{
		{BackendExact, nil},
		{BackendQuantized, []IndexOption{WithRerank(5)}},
		{BackendPruned, nil},
		{BackendHNSW, []IndexOption{WithEfSearch(120)}},
		{BackendHNSW, []IndexOption{WithHNSWQuantized(true), WithRerank(5)}},
	}
	for _, tc := range cases {
		backend := tc.backend
		opts := append([]IndexOption{WithBackend(backend), WithShards(3), WithIncludeSelf(true)}, tc.extra...)
		s, err := BuildIndex(emb, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveIndex(&buf, s); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if loaded.N() != emb.N() {
			t.Fatalf("%v: loaded N=%d", backend, loaded.N())
		}
		if b, ok := loaded.(interface{ Backend() Backend }); !ok || b.Backend() != backend {
			t.Fatalf("%v: loaded backend mismatch", backend)
		}
		for _, u := range []int{0, 17, 249} {
			want, err := s.TopK(ctx, u, 9)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.TopK(ctx, u, 9)
			if err != nil {
				t.Fatal(err)
			}
			// Bit-identical answers prove the embedding, backend payload and
			// IncludeSelf/rerank configuration all survived the round trip.
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v u=%d rank %d: loaded %+v built %+v", backend, u, i, got[i], want[i])
				}
			}
		}

		// Overrides apply; changing the backend is rejected.
		if _, err := LoadIndex(bytes.NewReader(buf.Bytes()), WithShards(8)); err != nil {
			t.Fatalf("%v: shard override failed: %v", backend, err)
		}
		other := BackendExact
		if backend == BackendExact {
			other = BackendPruned
		}
		if _, err := LoadIndex(bytes.NewReader(buf.Bytes()), WithBackend(other)); err == nil {
			t.Fatalf("%v: backend override accepted", backend)
		}
	}

	// Corrupt magic is rejected.
	if _, err := LoadIndex(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestSnapshotShardPortability pins that a defaulted shard count is not
// baked into the snapshot (the serving host re-derives it), while an
// explicit WithShards choice is persisted.
func TestSnapshotShardPortability(t *testing.T) {
	emb := testEmbedding(t, 60)
	shardField := func(snap []byte) int64 {
		// Header layout: magic(4) version(8) backend(8) shards(8) ...
		return int64(binary.LittleEndian.Uint64(snap[20:28]))
	}
	defIx, err := BuildIndex(emb) // shards defaulted to GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveIndex(&buf, defIx); err != nil {
		t.Fatal(err)
	}
	if got := shardField(buf.Bytes()); got != 0 {
		t.Fatalf("defaulted shards persisted as %d, want 0", got)
	}

	expIx, err := BuildIndex(emb, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := SaveIndex(&buf, expIx); err != nil {
		t.Fatal(err)
	}
	if got := shardField(buf.Bytes()); got != 3 {
		t.Fatalf("explicit shards persisted as %d, want 3", got)
	}

	// The default backend persists an explicit choice the same way.
	buf.Reset()
	if err := SaveIndex(&buf, mustBuildIndex(t, emb, WithShards(5))); err != nil {
		t.Fatal(err)
	}
	if got := shardField(buf.Bytes()); got != 5 {
		t.Fatalf("explicit shards on the default backend persisted as %d, want 5", got)
	}
}

// TestLoadIndexRejectsShuffledPermutation pins that a pruned snapshot
// whose permutation is bijective but not in decreasing-norm order is
// rejected: the early-exit bound would silently drop results otherwise.
func TestLoadIndexRejectsShuffledPermutation(t *testing.T) {
	emb := testEmbedding(t, 80)
	s, err := BuildIndex(emb, WithBackend(BackendPruned))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveIndex(&buf, s); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	// The permutation is the trailing n int32s; swap the first (highest
	// norm) and last (lowest norm) entries.
	permOff := len(snap) - 80*4
	first := binary.LittleEndian.Uint32(snap[permOff:])
	last := binary.LittleEndian.Uint32(snap[len(snap)-4:])
	binary.LittleEndian.PutUint32(snap[permOff:], last)
	binary.LittleEndian.PutUint32(snap[len(snap)-4:], first)
	if _, err := LoadIndex(bytes.NewReader(snap)); err == nil {
		t.Fatal("shuffled norm permutation accepted")
	}
}

// TestLoadIndexCorruptHeader feeds implausible headers and expects clean
// errors, not panics or huge allocations.
func TestLoadIndexCorruptHeader(t *testing.T) {
	emb := testEmbedding(t, 30)
	s, err := BuildIndex(emb)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveIndex(&buf, s); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()
	// Field offsets after the 4-byte magic, 8 bytes each:
	// version backend shards rerank self n dim.
	corrupt := func(offset int, val uint64) []byte {
		b := append([]byte(nil), base...)
		binary.LittleEndian.PutUint64(b[4+8*offset:], val)
		return b
	}
	cases := map[string][]byte{
		"overflowing dim": corrupt(6, 1<<62),
		"overflowing n":   corrupt(5, 1<<62),
		"n*dim overflow":  corrupt(5, 1<<33),
		"negative shards": corrupt(2, ^uint64(0)),
		"gigantic rerank": corrupt(3, 1<<40),
		"unknown backend": corrupt(1, 77),
		"future version":  corrupt(0, 99),
	}
	for name, snap := range cases {
		if _, err := LoadIndex(bytes.NewReader(snap)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestBuildIndexValidation is the table-driven contract for the
// constructor's error paths: out-of-range values report
// ErrInvalidIndexOption, backend-meaningless options report
// ErrIndexOptionConflict, and sensible configurations build.
func TestBuildIndexValidation(t *testing.T) {
	emb := testEmbedding(t, 40)
	cases := []struct {
		name string
		opts []IndexOption
		want error // nil means the build must succeed
	}{
		{"defaults", nil, nil},
		{"shards equal n", []IndexOption{WithShards(40)}, nil},
		{"hnsw tuned", []IndexOption{WithBackend(BackendHNSW), WithHNSWM(8),
			WithHNSWEfConstruction(40), WithEfSearch(32), WithHNSWSeed(7)}, nil},
		{"hnsw quantized rerank", []IndexOption{WithBackend(BackendHNSW),
			WithHNSWQuantized(true), WithRerank(3)}, nil},
		{"hnsw seed rows disabled", []IndexOption{WithBackend(BackendHNSW),
			WithHNSWSeedRows(0)}, nil},
		{"hnsw seed rows tuned", []IndexOption{WithBackend(BackendHNSW),
			WithHNSWSeedRows(128)}, nil},

		{"negative shards", []IndexOption{WithShards(-1)}, ErrInvalidIndexOption},
		{"shards exceed n", []IndexOption{WithShards(41)}, ErrInvalidIndexOption},
		{"rerank zero", []IndexOption{WithBackend(BackendQuantized), WithRerank(0)}, ErrInvalidIndexOption},
		{"unknown backend", []IndexOption{WithBackend(Backend(99))}, ErrInvalidIndexOption},
		{"hnsw M too small", []IndexOption{WithBackend(BackendHNSW), WithHNSWM(1)}, ErrInvalidIndexOption},
		{"efConstruction zero", []IndexOption{WithBackend(BackendHNSW), WithHNSWEfConstruction(0)}, ErrInvalidIndexOption},
		{"efSearch zero", []IndexOption{WithBackend(BackendHNSW), WithEfSearch(0)}, ErrInvalidIndexOption},
		{"negative seed rows", []IndexOption{WithBackend(BackendHNSW), WithHNSWSeedRows(-1)}, ErrInvalidIndexOption},

		{"rerank on exact", []IndexOption{WithRerank(4)}, ErrIndexOptionConflict},
		{"rerank on pruned", []IndexOption{WithBackend(BackendPruned), WithRerank(4)}, ErrIndexOptionConflict},
		{"rerank on unquantized hnsw", []IndexOption{WithBackend(BackendHNSW), WithRerank(4)}, ErrIndexOptionConflict},
		{"efSearch on exact", []IndexOption{WithEfSearch(64)}, ErrIndexOptionConflict},
		{"efSearch on pruned", []IndexOption{WithBackend(BackendPruned), WithEfSearch(64)}, ErrIndexOptionConflict},
		{"hnsw M on quantized", []IndexOption{WithBackend(BackendQuantized), WithHNSWM(8)}, ErrIndexOptionConflict},
		{"hnsw seed on pruned", []IndexOption{WithBackend(BackendPruned), WithHNSWSeed(9)}, ErrIndexOptionConflict},
		{"hnsw quant on exact", []IndexOption{WithHNSWQuantized(true)}, ErrIndexOptionConflict},
		{"seed rows on quantized", []IndexOption{WithBackend(BackendQuantized), WithHNSWSeedRows(64)}, ErrIndexOptionConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := BuildIndex(emb, tc.opts...)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("BuildIndex: %v", err)
				}
				if s.N() != emb.N() {
					t.Fatalf("built index N=%d", s.N())
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("BuildIndex error = %v, want %v", err, tc.want)
			}
		})
	}

	if _, err := ParseBackend("bogus"); err == nil {
		t.Fatal("bogus backend name parsed")
	}
	for _, name := range []string{"exact", "quantized", "pruned", "hnsw"} {
		b, err := ParseBackend(name)
		if err != nil || b.String() != name {
			t.Fatalf("ParseBackend(%q) = %v, %v", name, b, err)
		}
	}
}
