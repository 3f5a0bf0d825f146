package nrp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHNSWRecallVsExact pins the accuracy contract on the SBM fixture:
// recall@10 against the exact scan must not drop below 0.95 — the same
// floor the CI bench gate enforces on the 100k serving graph.
func TestHNSWRecallVsExact(t *testing.T) {
	emb := testEmbedding(t, 1200)
	ctx := context.Background()
	exact := mustBuildIndex(t, emb)

	for _, tc := range []struct {
		name string
		opts []IndexOption
	}{
		{"float", nil},
		{"quantcoarse", []IndexOption{WithHNSWQuantized(true)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := BuildIndex(emb, append([]IndexOption{WithBackend(BackendHNSW)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			const k = 10
			var hits, total float64
			for u := 0; u < emb.N(); u += 13 {
				want, err := exact.TopK(ctx, u, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.TopK(ctx, u, k)
				if err != nil {
					t.Fatal(err)
				}
				hits += recallAt(got, want) * float64(len(want))
				total += float64(len(want))
			}
			if recall := hits / total; recall < 0.95 {
				t.Fatalf("recall@%d = %.4f < 0.95", k, recall)
			} else {
				t.Logf("recall@%d = %.4f", k, recall)
			}
		})
	}
}

// TestHNSWSnapshotDeterministicRebuild pins the determinism contract end
// to end: rebuilding with the same seed — at any thread count — must
// produce a byte-identical NRPX snapshot, so serving fleets can verify
// artifact integrity by hash.
func TestHNSWSnapshotDeterministicRebuild(t *testing.T) {
	emb := testEmbedding(t, 500)
	snap := func(threads int) []byte {
		s, err := BuildIndex(emb, WithBackend(BackendHNSW), WithHNSWSeed(42), WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveIndex(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := snap(1)
	for _, threads := range []int{2, 4} {
		if got := snap(threads); !bytes.Equal(got, ref) {
			t.Fatalf("%d-thread rebuild produced a different snapshot (%d vs %d bytes)", threads, len(got), len(ref))
		}
	}

	// A different seed must change the graph section (the embedding part
	// is identical), or the seed option is silently ignored.
	s, err := BuildIndex(emb, WithBackend(BackendHNSW), WithHNSWSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	var other bytes.Buffer
	if err := SaveIndex(&other, s); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(other.Bytes(), ref) {
		t.Fatal("different HNSW seeds produced identical snapshots")
	}
}

// hnswBaseLen computes where the trailing graph section starts in an
// HNSW snapshot: magic + 7-field header + X and Y payloads, plus the
// quantization payload when the coarse stage is quantized.
func hnswBaseLen(n, dim int, quantized bool) int {
	base := 4 + 7*8 + 2*n*dim*8
	if quantized {
		base += dim*8 + n*dim
	}
	return base
}

// TestHNSWSnapshotForwardCompat pins the compatibility story: the bytes
// before the NRPH section are a complete v1 snapshot, so a reader that
// stops there (an old binary) gets a working scan index over the same
// embedding; a corrupted section is rejected, never half-loaded.
func TestHNSWSnapshotForwardCompat(t *testing.T) {
	emb := testEmbedding(t, 300)
	ctx := context.Background()
	for _, tc := range []struct {
		name        string
		opts        []IndexOption
		baseBackend Backend
	}{
		{"float", nil, BackendExact},
		{"quantcoarse", []IndexOption{WithHNSWQuantized(true)}, BackendQuantized},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := BuildIndex(emb, append([]IndexOption{WithBackend(BackendHNSW)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := SaveIndex(&buf, s); err != nil {
				t.Fatal(err)
			}
			snap := buf.Bytes()
			baseLen := hnswBaseLen(emb.N(), emb.Dim(), tc.baseBackend == BackendQuantized)
			if len(snap) <= baseLen {
				t.Fatalf("snapshot %d bytes, base alone is %d", len(snap), baseLen)
			}
			if got := string(snap[baseLen : baseLen+4]); got != "NRPH" {
				t.Fatalf("section magic %q at offset %d", got, baseLen)
			}

			// A v1 reader stops at the base payload: loading the truncated
			// file is exactly that reader's view, and must yield a working
			// scan index of the base backend.
			old, err := LoadIndex(bytes.NewReader(snap[:baseLen]))
			if err != nil {
				t.Fatalf("base-only load: %v", err)
			}
			if b, ok := old.(interface{ Backend() Backend }); !ok || b.Backend() != tc.baseBackend {
				t.Fatalf("base-only load backend = %v, want %v", old, tc.baseBackend)
			}
			nbrs, err := old.TopK(ctx, 7, 5)
			if err != nil || len(nbrs) != 5 {
				t.Fatalf("base-only TopK: %v, %d results", err, len(nbrs))
			}

			// The full file loads as HNSW and answers identically to the
			// index it was saved from.
			loaded, err := LoadIndex(bytes.NewReader(snap))
			if err != nil {
				t.Fatal(err)
			}
			if b, ok := loaded.(interface{ Backend() Backend }); !ok || b.Backend() != BackendHNSW {
				t.Fatal("full load did not reconstruct the HNSW backend")
			}
			want, err := s.TopK(ctx, 7, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.TopK(ctx, 7, 5)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rank %d: loaded %+v built %+v", i, got[i], want[i])
				}
			}

			// Corruptions of the section are rejected with clean errors.
			flip := func(off int) []byte {
				c := append([]byte(nil), snap...)
				c[off] ^= 0x3c
				return c
			}
			corruptions := map[string]struct {
				snap []byte
				want string
			}{
				"section magic":   {flip(baseLen + 1), "section magic"},
				"section version": {flip(baseLen + 4), "section version"},
				"graph payload":   {flip(baseLen + 4 + 16 + 9), "checksum"},
				"checksum":        {flip(len(snap) - 2), "checksum"},
				"truncated section": {snap[:len(snap)-3],
					"section"},
			}
			for name, c := range corruptions {
				_, err := LoadIndex(bytes.NewReader(c.snap))
				if err == nil {
					t.Fatalf("%s corruption accepted", name)
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Fatalf("%s corruption: error %q does not mention %q", name, err, c.want)
				}
			}
		})
	}
}

// TestHNSWLoadOverrides pins the load-time option semantics: efSearch is
// a serving knob (wider beams scan more and recall at least as much),
// build-time parameters are frozen in the snapshot, and HNSW options on
// non-HNSW snapshots conflict.
func TestHNSWLoadOverrides(t *testing.T) {
	emb := testEmbedding(t, 800)
	ctx := context.Background()
	s, err := BuildIndex(emb, WithBackend(BackendHNSW), WithEfSearch(12))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveIndex(&buf, s); err != nil {
		t.Fatal(err)
	}
	scannedWith := func(opts ...IndexOption) int {
		t.Helper()
		ix, err := LoadIndex(bytes.NewReader(buf.Bytes()), opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ix.TopKMany(ctx, []int{3}, 10)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Stats.Scanned
	}
	narrow := scannedWith()
	wide := scannedWith(WithEfSearch(256))
	if wide <= narrow {
		t.Fatalf("ef=256 scanned %d, persisted ef=12 scanned %d: override had no effect", wide, narrow)
	}

	// Build-time parameters are baked in; overriding them at load is a
	// conflict, as is an HNSW option on a non-HNSW snapshot.
	if _, err := LoadIndex(bytes.NewReader(buf.Bytes()), WithHNSWM(4)); !errors.Is(err, ErrIndexOptionConflict) {
		t.Fatalf("WithHNSWM at load: %v", err)
	}
	if _, err := LoadIndex(bytes.NewReader(buf.Bytes()), WithHNSWSeed(9)); !errors.Is(err, ErrIndexOptionConflict) {
		t.Fatalf("WithHNSWSeed at load: %v", err)
	}
	exact, err := BuildIndex(emb)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := SaveIndex(&buf, exact); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(bytes.NewReader(buf.Bytes()), WithEfSearch(64)); !errors.Is(err, ErrIndexOptionConflict) {
		t.Fatalf("WithEfSearch on exact snapshot: %v", err)
	}
}

// TestLiveIndexHNSWQueryDuringSwap is the -race hammer for the HNSW
// backend behind LiveIndex: worker goroutines mix TopK, TopKMany and
// ScoreMany while the graph index is rebuilt and atomically swapped
// underneath them.
func TestLiveIndexHNSWQueryDuringSwap(t *testing.T) {
	dyn, newEdges := dynFixture(t, DynamicConfig{Policy: RefreshIncremental, ResidualBudget: 1e9})
	live, err := NewLiveIndex(dyn, WithBackend(BackendHNSW), WithEfSearch(48))
	if err != nil {
		t.Fatal(err)
	}
	if live.Backend() != BackendHNSW {
		t.Fatalf("live backend %v", live.Backend())
	}
	ctx := context.Background()
	n := live.N()

	var (
		stop     atomic.Bool
		queries  atomic.Int64
		failures atomic.Int64
		firstErr atomic.Value
	)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				u := (w*1009 + i*31) % n
				var err error
				switch i % 3 {
				case 0:
					_, err = live.TopK(ctx, u, 10)
				case 1:
					_, err = live.TopKMany(ctx, []int{u, (u + 7) % n}, 5)
				default:
					_, err = live.ScoreMany(ctx, []Pair{{U: u, V: (u + 3) % n}})
				}
				queries.Add(1)
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(w)
	}

	const batch = 40
	swaps := 0
	for lo := 0; lo < len(newEdges); lo += batch {
		hi := min(lo+batch, len(newEdges))
		if _, err := live.ApplyUpdates(ctx, insertBatch(newEdges[lo:hi])); err != nil {
			t.Fatal(err)
		}
		if _, err := live.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
		swaps++
	}
	stop.Store(true)
	wg.Wait()

	if got := failures.Load(); got != 0 {
		t.Fatalf("%d of %d queries failed during %d swaps; first error: %v",
			got, queries.Load(), swaps, firstErr.Load())
	}
	if queries.Load() == 0 || swaps == 0 {
		t.Fatalf("degenerate run: %d queries, %d swaps", queries.Load(), swaps)
	}
}
