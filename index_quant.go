package nrp

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"

	"github.com/nrp-embed/nrp/internal/par"
	"github.com/nrp-embed/nrp/internal/quant"
)

// quantKernel is the int8-quantized backend: the backward embeddings are
// quantized once at build time (per-dimension symmetric scales), each
// query folds those scales into X_u and scans every candidate with the
// fused int32 kernel — an 8× reduction in memory traffic over the float64
// scan — and the top rerank·k shortlist is then re-scored exactly, so
// returned scores are exact and only ranks beyond the shortlist can be
// missed.
type quantKernel struct {
	qy *quant.Matrix
}

func buildQuant(emb *Embedding, cfg *indexConfig) kernel { return newQuantKernel(emb, cfg) }

func newQuantKernel(emb *Embedding, cfg *indexConfig) *quantKernel {
	// Build-time quantization parallelizes over the WithThreads budget;
	// the result is bit-identical for every thread count.
	return &quantKernel{qy: quant.QuantizeRowsPool(par.New(cfg.buildThreads), emb.Y)}
}

// decodeQuant reads the snapshot payload (dim scales, then n·dim codes),
// so a loaded index serves without re-quantizing.
func decodeQuant(br *bufio.Reader, emb *Embedding) (kernel, error) {
	n, dim := emb.N(), emb.Dim()
	qy := &quant.Matrix{N: n, Dim: dim, Scales: make([]float64, dim), Codes: make([]int8, n*dim)}
	if err := binary.Read(br, binary.LittleEndian, qy.Scales); err != nil {
		return nil, fmt.Errorf("nrp: reading quantization scales: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, qy.Codes); err != nil {
		return nil, fmt.Errorf("nrp: reading quantization codes: %w", err)
	}
	return &quantKernel{qy: qy}, nil
}

func (*quantKernel) bind(*Embedding, *indexConfig) error { return nil }

func (*quantKernel) snapshotBackend() Backend { return BackendQuantized }

func (q *quantKernel) writePayload(bw *bufio.Writer) error {
	if err := binary.Write(bw, binary.LittleEndian, q.qy.Scales); err != nil {
		return err
	}
	return binary.Write(bw, binary.LittleEndian, q.qy.Codes)
}

func (q *quantKernel) search(ctx context.Context, ix *index, u, k int, parallel bool) ([]Neighbor, QueryStats, error) {
	// Candidate range: the whole index, or this process's slice under
	// WithShardSlice. The quantization scales stay global (computed over
	// all rows at build time), so per-slice quantized scores are identical
	// to the single-process scan's.
	rlo, rhi := ix.cfg.candRange(ix.emb.N())
	qx, _ := q.qy.QuantizeQuery(ix.emb.X.Row(u))
	// Each shard shortlists its own top rerank·k by quantized score; the
	// merged shortlist is re-scored exactly below, so the quantized scale
	// factor (a positive constant per query) never needs to be applied —
	// it cannot change the ordering.
	rk := k * ix.cfg.rerank
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
			h.offer(v, float64(quant.Dot(qx, q.qy.Row(v))))
			scanned++
		}
		return scanned, 0, nil
	}
	shortlist, stats, err := runShardScan(ctx, rhi-rlo, ix.cfg.shards, rk, parallel, scan)
	if err != nil {
		return nil, stats, err
	}

	// Exact rerank of the shortlist: float64 re-score, global top k.
	final := newTopkHeap(k)
	for _, nb := range shortlist {
		final.offer(nb.Node, ix.emb.Score(u, nb.Node))
	}
	stats.Reranked = len(shortlist)
	return sortNeighbors(final.items), stats, nil
}
