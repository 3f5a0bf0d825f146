package nrp

import (
	"bufio"
	"context"

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

func (exactKernel) search(ctx context.Context, ix *index, u, k int, parallel bool) ([]Neighbor, QueryStats, error) {
	// The candidate range is all of [0, n) on an unrestricted index and
	// this process's slice under WithShardSlice; per-query shard spans
	// subdivide whatever the range is.
	rlo, rhi := ix.cfg.candRange(ix.emb.N())
	xu := ix.emb.X.Row(u)
	scan := func(ctx context.Context, w, shards int, h *topkHeap) (scanned, pruned int, err error) {
		lo, hi := contiguousSpan(rhi-rlo, w, shards)
		lo, hi = lo+rlo, hi+rlo
		for v := lo; v < hi; v++ {
			if (v-lo)%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return scanned, 0, err
				}
			}
			if v == u && !ix.cfg.includeSelf {
				continue
			}
			h.offer(v, matrix.Dot(xu, ix.emb.Y.Row(v)))
			scanned++
		}
		return scanned, 0, nil
	}
	return runShardScan(ctx, rhi-rlo, ix.cfg.shards, k, parallel, scan)
}
