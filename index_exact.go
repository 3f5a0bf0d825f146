package nrp

import (
	"bufio"
	"context"
	"math"
	"sync"

	"github.com/nrp-embed/nrp/internal/matrix"
)

// exactKernel is the exact brute-force backend: every candidate is scored
// with the float64 kernel, sharded across goroutines. It has no build-time
// state and no snapshot payload, and is the reference the approximate
// backends are tested against.
type exactKernel struct{}

func buildExact(*Embedding, *indexConfig) kernel { return exactKernel{} }

func decodeExact(*bufio.Reader, *Embedding) (kernel, error) { return exactKernel{}, nil }

func (exactKernel) bind(*Embedding, *indexConfig) error { return nil }

func (exactKernel) snapshotBackend() Backend { return BackendExact }

func (exactKernel) writePayload(*bufio.Writer) error { return nil }

// search is the tile-of-one case of searchTile. Every caller of an
// exhaustive kernel wants the row shards in parallel, so the flag has
// nothing to choose.
func (e exactKernel) search(ctx context.Context, ix *index, u, k int, _ bool) ([]Neighbor, QueryStats, error) {
	var res Result
	err := e.searchTile(ctx, ix, []tileQuery{{u: u, k: k, res: &res}})
	return res.Neighbors, res.Stats, err
}

// rowQuery is one query of a tile as one row shard sees it: a private
// top-k heap, and the heap's admission bar cached beside the query row.
type rowQuery struct {
	x []float64
	// skip is the row never admitted: the source when self-results are
	// excluded, else -1.
	skip int
	h    topkHeap
	// bar is the weakest retained score once h is full and -Inf before.
	// A score strictly below it cannot enter, so the scan loop rejects
	// with one inlined compare and calls admit only for the few rows
	// that might change the heap. Everything else — a tie, a NaN, which
	// is why the compare is written !(score < bar) — is left to the
	// heap's own ordering.
	bar float64
}

func (q *rowQuery) admit(v int, score float64) {
	if v == q.skip {
		return
	}
	q.h.offer(v, score)
	if q.h.full() {
		q.bar = q.h.min().Score
	}
}

// searchTile is the exact backend's one candidate loop. The candidate
// range — all of [0, n), or this process's slice under WithShardSlice —
// is cut into cfg.shards contiguous row shards; each shard walks its rows
// four at a time and scores every block against the whole tile of
// queries while the block is in L1, so a batch streams Y once per tile,
// not once per query. Every shard runs on its own goroutine, so the
// parts of the fork-join are equal row counts whatever the tile holds.
func (exactKernel) searchTile(ctx context.Context, ix *index, qs []tileQuery) error {
	rlo, rhi := ix.cfg.candRange(ix.emb.N())
	shards := clampParts(ix.cfg.shards, rhi-rlo)
	y, dim := ix.emb.Y.Data, ix.emb.Dim()

	parts := make([][]rowQuery, shards)
	errs := make([]error, shards)
	scanShard := func(w int) {
		// Allocated by the shard that writes it, so two shards' admission
		// bars do not share a cache line.
		part := make([]rowQuery, len(qs))
		parts[w] = part
		for i, q := range qs {
			part[i] = rowQuery{x: ix.emb.X.Row(q.u), skip: -1, h: newTopkHeap(q.k), bar: math.Inf(-1)}
			if !ix.cfg.includeSelf {
				part[i].skip = q.u
			}
		}
		lo, hi := contiguousSpan(rhi-rlo, w, shards)
		lo, hi = lo+rlo, hi+rlo
		for clo := lo; clo < hi; clo += ctxCheckStride {
			if errs[w] = ctx.Err(); errs[w] != nil {
				return
			}
			chi := clo + ctxCheckStride
			if chi > hi {
				chi = hi
			}
			v := clo
			for ; v+4 <= chi; v += 4 {
				block := y[v*dim : (v+4)*dim]
				for i := range part {
					q := &part[i]
					s0, s1, s2, s3 := matrix.DotRows4(q.x, block)
					if !(s0 < q.bar) {
						q.admit(v, s0)
					}
					if !(s1 < q.bar) {
						q.admit(v+1, s1)
					}
					if !(s2 < q.bar) {
						q.admit(v+2, s2)
					}
					if !(s3 < q.bar) {
						q.admit(v+3, s3)
					}
				}
			}
			for ; v < chi; v++ {
				row := y[v*dim : (v+1)*dim]
				for i := range part {
					q := &part[i]
					if s := matrix.Dot(q.x, row); !(s < q.bar) {
						q.admit(v, s)
					}
				}
			}
		}
	}
	if shards > 1 {
		var wg sync.WaitGroup
		for w := 0; w < shards; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				scanShard(w)
			}(w)
		}
		wg.Wait()
	} else {
		scanShard(0)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	for i, q := range qs {
		merged := parts[0][i].h // the other shards' survivors are offered into shard 0's heap
		for _, part := range parts[1:] {
			for _, nb := range part[i].h.items {
				merged.offer(nb.Node, nb.Score)
			}
		}
		q.res.Neighbors = sortNeighbors(merged.items)
		q.res.Stats.Scanned = ix.cfg.availCandidates(ix.emb.N(), q.u)
	}
	return nil
}
