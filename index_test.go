package nrp

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
)

func testEmbedding(t *testing.T, n int) *Embedding {
	t.Helper()
	g, err := GenSBM(SBMConfig{N: n, M: 6 * n, Communities: 5, Directed: true, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Dim = 16
	emb, _, err := EmbedCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return emb
}

// mustBuildIndex is BuildIndex for tests whose options are known valid.
func mustBuildIndex(t testing.TB, emb *Embedding, opts ...IndexOption) Searcher {
	t.Helper()
	s, err := BuildIndex(emb, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bruteTopK is the reference: score every candidate, argsort, take k.
func bruteTopK(emb *Embedding, u, k int, includeSelf bool) []Neighbor {
	var all []Neighbor
	for v := 0; v < emb.N(); v++ {
		if v == u && !includeSelf {
			continue
		}
		all = append(all, Neighbor{Node: v, Score: emb.Score(u, v)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Node < all[j].Node
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestTopKMatchesBruteForce(t *testing.T) {
	emb := testEmbedding(t, 500)
	rng := rand.New(rand.NewSource(7))
	for _, workers := range []int{1, 3, 8} {
		ix := mustBuildIndex(t, emb, WithShards(workers))
		for trial := 0; trial < 8; trial++ {
			u := rng.Intn(emb.N())
			k := 1 + rng.Intn(20)
			got, err := ix.TopK(context.Background(), u, k)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteTopK(emb, u, k, false)
			if len(got) != len(want) {
				t.Fatalf("workers=%d u=%d k=%d: got %d results, want %d", workers, u, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d u=%d k=%d rank %d: got %+v want %+v", workers, u, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestTopKIncludeSelfAndClamp(t *testing.T) {
	emb := testEmbedding(t, 60)
	ix := mustBuildIndex(t, emb, WithIncludeSelf(true))
	got, err := ix.TopK(context.Background(), 4, emb.N()+50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != emb.N() {
		t.Fatalf("clamped k: got %d results, want %d", len(got), emb.N())
	}
	want := bruteTopK(emb, 4, emb.N(), true)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rank %d: got %+v want %+v", i, got[i], want[i])
		}
	}

	// Excluding self must never return u.
	ixNoSelf := mustBuildIndex(t, emb)
	res, err := ixNoSelf.TopK(context.Background(), 4, emb.N()+50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != emb.N()-1 {
		t.Fatalf("self-excluding clamp: %d results", len(res))
	}
	for _, nb := range res {
		if nb.Node == 4 {
			t.Fatal("TopK returned the query node")
		}
	}
}

func TestTopKValidation(t *testing.T) {
	emb := testEmbedding(t, 40)
	ix := mustBuildIndex(t, emb)
	ctx := context.Background()
	if _, err := ix.TopK(ctx, -1, 5); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := ix.TopK(ctx, emb.N(), 5); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := ix.TopK(ctx, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestTopKCancelled(t *testing.T) {
	emb := testEmbedding(t, 40)
	ix := mustBuildIndex(t, emb)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.TopK(ctx, 0, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := ix.ScoreMany(ctx, []Pair{{0, 1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScoreMany: want context.Canceled, got %v", err)
	}
}

func TestScoreMany(t *testing.T) {
	emb := testEmbedding(t, 200)
	rng := rand.New(rand.NewSource(13))
	pairs := make([]Pair, 300)
	for i := range pairs {
		pairs[i] = Pair{U: rng.Intn(emb.N()), V: rng.Intn(emb.N())}
	}
	for _, workers := range []int{1, 4} {
		ix := mustBuildIndex(t, emb, WithShards(workers))
		got, err := ix.ScoreMany(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pairs) {
			t.Fatalf("got %d scores for %d pairs", len(got), len(pairs))
		}
		for i, p := range pairs {
			if got[i] != emb.Score(p.U, p.V) {
				t.Fatalf("workers=%d pair %d: got %v want %v", workers, i, got[i], emb.Score(p.U, p.V))
			}
		}
	}

	ix := mustBuildIndex(t, emb)
	if _, err := ix.ScoreMany(context.Background(), []Pair{{0, emb.N()}}); err == nil {
		t.Fatal("out-of-range pair accepted")
	}
	empty, err := ix.ScoreMany(context.Background(), nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v, %v", empty, err)
	}
}

// TestIndexIsSearcher pins the interface contract future backends implement.
func TestIndexIsSearcher(t *testing.T) {
	emb := testEmbedding(t, 40)
	s := mustBuildIndex(t, emb)
	if _, err := s.TopK(context.Background(), 1, 3); err != nil {
		t.Fatal(err)
	}
}
