package nrp

import (
	"context"
	"slices"
	"sync"
)

// The scan scaffold the scan backends (exact, quantized, pruned) share:
// shard a candidate space, keep a private top-k heap per shard, merge. A
// backend supplies only the loop that scores its shard. The quantized and
// pruned kernels run theirs through runShardScan, one query at a time;
// the exact kernel's loop scores a tile of queries per pass and carries
// its own fork-join (index_exact.go).

// ctxCheckStride is how many candidates a scan worker processes between
// context checks — frequent enough for sub-millisecond cancellation, rare
// enough to stay off the hot path.
const ctxCheckStride = 4096

// shardScanFunc scores shard w's share of the n candidates into h —
// contiguous span or strided sequence, the backend's choice — and
// reports how many candidates it scored and skipped via an early-exit
// bound.
type shardScanFunc func(ctx context.Context, w, shards int, h *topkHeap) (scanned, pruned int, err error)

// contiguousSpan is the default shard shape: shard w of `shards` covers
// the half-open range [lo, hi) of [0, n).
func contiguousSpan(n, w, shards int) (lo, hi int) {
	chunk := (n + shards - 1) / shards
	lo = w * chunk
	hi = lo + chunk
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// clampParts bounds a shard or worker count to the n items there are to
// split, and to at least one.
func clampParts(parts, n int) int {
	return max(1, min(parts, n))
}

// runShardScan runs scan for every shard (concurrently when parallel)
// and merges the per-shard heaps into the sorted global top k.
func runShardScan(ctx context.Context, n, shards, k int, parallel bool, scan shardScanFunc) ([]Neighbor, QueryStats, error) {
	var stats QueryStats
	shards = clampParts(shards, n)

	heaps := make([]topkHeap, shards)
	scanned := make([]int, shards)
	pruned := make([]int, shards)
	errs := make([]error, shards)
	runOne := func(w int) {
		h := newTopkHeap(k)
		scanned[w], pruned[w], errs[w] = scan(ctx, w, shards, &h)
		heaps[w] = h
	}
	if parallel && shards > 1 {
		var wg sync.WaitGroup
		for w := 0; w < shards; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runOne(w)
			}(w)
		}
		wg.Wait()
	} else {
		for w := 0; w < shards; w++ {
			runOne(w)
		}
	}
	for w, err := range errs {
		if err != nil {
			return nil, stats, err
		}
		stats.Scanned += scanned[w]
		stats.Pruned += pruned[w]
	}

	merged := newTopkHeap(k)
	for _, h := range heaps {
		for _, nb := range h.items {
			merged.offer(nb.Node, nb.Score)
		}
	}
	return sortNeighbors(merged.items), stats, nil
}

// sortNeighbors orders results by decreasing score, ties by ascending
// node id, in place.
func sortNeighbors(out []Neighbor) []Neighbor {
	// slices.SortFunc over sort.Slice: the reflection-based swapper costs
	// about a microsecond per call, which the graph backend's
	// single-digit-microsecond queries actually notice.
	slices.SortFunc(out, func(a, b Neighbor) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return a.Node - b.Node
	})
	return out
}

// weaker reports whether a ranks below b: lower score, or among equal
// scores the higher node id (mirroring TopK's ascending-id tie-break).
func weaker(a, b Neighbor) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node
}

// topkHeap is a fixed-capacity min-heap on score: the root is the weakest
// of the current top k, so each candidate costs O(1) when it loses and
// O(log k) when it displaces the root.
type topkHeap struct {
	items []Neighbor
	cap   int
}

func newTopkHeap(k int) topkHeap { return topkHeap{items: make([]Neighbor, 0, k), cap: k} }

// full reports whether the heap holds its full k items; min is then the
// weakest retained score (the prune threshold).
func (h *topkHeap) full() bool { return len(h.items) == h.cap }

func (h *topkHeap) min() Neighbor { return h.items[0] }

func (h *topkHeap) offer(node int, score float64) {
	cand := Neighbor{Node: node, Score: score}
	if len(h.items) < h.cap {
		h.items = append(h.items, cand)
		// Sift up.
		i := len(h.items) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !weaker(h.items[i], h.items[parent]) {
				break
			}
			h.items[i], h.items[parent] = h.items[parent], h.items[i]
			i = parent
		}
		return
	}
	// Full: admit only candidates stronger than the current weakest (root).
	if !weaker(h.items[0], cand) {
		return
	}
	h.items[0] = cand
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && weaker(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < len(h.items) && weaker(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
