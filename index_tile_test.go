package nrp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/nrp-embed/nrp/internal/matrix"
)

// tieEmbedding is a Gaussian embedding whose Y repeats a handful of rows
// many times over, so most scores occur at several node ids: equal scores
// meet the scan's admission bar, and the ascending-id tie-break decides
// which of them a top-k keeps.
func tieEmbedding(n, dim int, seed int64) *Embedding {
	rng := rand.New(rand.NewSource(seed))
	emb := &Embedding{X: matrix.GaussianDense(n, dim, rng), Y: matrix.GaussianDense(n, dim, rng)}
	for v := 0; v < n; v++ {
		if v%3 != 0 {
			copy(emb.Y.Row(v), emb.Y.Row(3*(v%5)))
		}
	}
	return emb
}

// bruteTopKRange is bruteTopK over the candidates [lo, hi).
func bruteTopKRange(emb *Embedding, u, k int, includeSelf bool, lo, hi int) []Neighbor {
	all := []Neighbor{}
	for v := lo; v < hi; v++ {
		if v != u || includeSelf {
			all = append(all, Neighbor{Node: v, Score: emb.Score(u, v)})
		}
	}
	sort.Slice(all, func(i, j int) bool { return weaker(all[j], all[i]) })
	return all[:min(k, len(all))]
}

// diffNeighbors describes the first rank at which got departs from want,
// or returns "" when the two are equal with ==.
func diffNeighbors(got, want []Neighbor) string {
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			return fmt.Sprintf("rank %d of %d: got %v of %d, want %+v", i, len(want), got[min(i, len(got)):min(i+1, len(got))], len(got), want[i])
		}
	}
	if len(got) > len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	return ""
}

// TestExactTilesMatchBruteForce walks the blocked scan's edges: row
// counts and shard and slice bounds that are not multiples of the 4-row
// block, the source on every position of a block (excluded or not),
// partial and repeated tiles, k beyond the candidates, and tied scores.
// Batch, single query and brute force must agree with ==.
func TestExactTilesMatchBruteForce(t *testing.T) {
	const n = 103
	emb := tieEmbedding(n, 5, 3)
	ctx := context.Background()
	// Eight consecutive ids put a source on each block position whatever
	// the shard's first row; the rest are a duplicate, both ends, and ids
	// inside and outside every slice below.
	sources := []int{36, 37, 38, 39, 36, 0, 102, 70, 40, 41, 42, 43, 69}
	slices := [][2]int{{0, 1}, {0, 3}, {1, 3}, {2, 3}} // ShardRange(103, ·, 3) = [0,35) [35,70) [70,103)
	for _, self := range []bool{false, true} {
		for _, shards := range []int{1, 2, 3, 7} {
			for _, sl := range slices {
				opts := []IndexOption{WithShards(shards), WithIncludeSelf(self)}
				if sl[1] > 1 {
					opts = append(opts, WithShardSlice(sl[0], sl[1]))
				}
				s := mustBuildIndex(t, emb, opts...)
				lo, hi := ShardRange(n, sl[0], sl[1])
				for _, batch := range []int{1, 3, 4, 5, 9, len(sources)} {
					for _, k := range []int{1, 10, n + 5} {
						name := fmt.Sprintf("self=%v shards=%d slice=%d/%d batch=%d k=%d", self, shards, sl[0], sl[1], batch, k)
						us := sources[len(sources)-batch:]
						res, err := s.TopKMany(ctx, us, k)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for i, u := range us {
							want := bruteTopKRange(emb, u, k, self, lo, hi)
							single, err := s.TopK(ctx, u, k)
							if err != nil {
								t.Fatalf("%s u=%d: %v", name, u, err)
							}
							if res[i].Source != u {
								t.Fatalf("%s: result %d is for source %d, want %d", name, i, res[i].Source, u)
							}
							if d := diffNeighbors(res[i].Neighbors, want); d != "" {
								t.Fatalf("%s u=%d: TopKMany vs brute force: %s", name, u, d)
							}
							if d := diffNeighbors(single, want); d != "" {
								t.Fatalf("%s u=%d: TopK vs brute force: %s", name, u, d)
							}
							if avail := len(bruteTopKRange(emb, u, n, self, lo, hi)); res[i].Stats.Scanned != avail {
								t.Fatalf("%s u=%d: scanned %d of %d candidates", name, u, res[i].Stats.Scanned, avail)
							}
						}
					}
				}
			}
		}
	}
}

// tripContext reports context.Canceled from its trip-th Err call on and
// counts the calls, so a test can cancel a scan at a chosen check.
type tripContext struct {
	context.Context
	trip, calls atomic.Int64
}

func (c *tripContext) Err() error {
	if c.calls.Add(1) >= c.trip.Load() {
		return context.Canceled
	}
	return nil
}

// TestTopKManyCancelledMidBatch: a batch on an exhaustive backend checks
// its context once per ctxCheckStride rows per shard, returns ctx.Err()
// from the first check that sees the cancellation, and scans no further.
func TestTopKManyCancelledMidBatch(t *testing.T) {
	const n, shards = 6*ctxCheckStride + 5, 2 // four checks per shard per pass over Y
	emb := tieEmbedding(n, 4, 5)
	us := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, backend := range []Backend{BackendExact, BackendQuantized} {
		s := mustBuildIndex(t, emb, WithBackend(backend), WithShards(shards))
		ctx := &tripContext{Context: context.Background()}
		ctx.trip.Store(1 << 62)
		if _, err := s.TopKMany(ctx, us, 3); err != nil {
			t.Fatal(err)
		}
		total := ctx.calls.Load()
		// Trip in the middle of the batch: every shard running then stops
		// at its next check, so at most one more call per shard follows.
		trip := total / 2
		ctx.calls.Store(0)
		ctx.trip.Store(trip)
		if _, err := s.TopKMany(ctx, us, 3); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: want context.Canceled, got %v", backend, err)
		}
		if calls := ctx.calls.Load(); calls >= trip+shards {
			t.Fatalf("%v: %d context checks after a cancellation at check %d (an uncancelled batch makes %d)", backend, calls, trip, total)
		}
	}
}
