package nrp

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/nrp-embed/nrp/internal/matrix"
	"github.com/nrp-embed/nrp/internal/par"
)

// prunedKernel is the norm-pruned backend. At build time the backward
// embeddings are sorted by decreasing ‖Y_v‖ and copied into that order; a
// query scans positions in decreasing-norm order and stops as soon as the
// Cauchy–Schwarz bound ‖X_u‖·‖Y_v‖ falls below the current k-th best
// score — every remaining candidate is then provably weaker. Results are
// exact; the win over BackendExact grows with the skew of the norm
// distribution, which NRP's degree-targeted reweighting makes heavy-
// tailed on real graphs.
//
// Shards take strided position sequences (w, w+S, w+2S, …) so each shard
// sees the global decreasing-norm profile and its private top-k heap
// saturates with strong candidates early, triggering its early exit after
// a few multiples of k candidates instead of a shard-local norm tail.
type prunedKernel struct {
	// perm maps scan position to original node id, norms[i] = ‖Y_perm[i]‖,
	// decreasing; ys holds Y's rows in perm order for scan locality.
	perm  []int32
	norms []float64
	ys    *matrix.Dense
}

func buildPruned(emb *Embedding, cfg *indexConfig) kernel {
	n := emb.N()
	norms := make([]float64, n)
	par.New(cfg.buildThreads).For(n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			norms[v] = matrix.Norm2(emb.Y.Row(v))
		}
	})
	perm := make([]int32, n)
	for v := range perm {
		perm[v] = int32(v)
	}
	sort.SliceStable(perm, func(i, j int) bool { return norms[perm[i]] > norms[perm[j]] })
	return &prunedKernel{perm: perm}
}

// decodePruned reads the snapshot payload, the n-entry int32 permutation,
// so a loaded index serves without re-sorting.
func decodePruned(br *bufio.Reader, emb *Embedding) (kernel, error) {
	n := emb.N()
	perm := make([]int32, n)
	if err := binary.Read(br, binary.LittleEndian, perm); err != nil {
		return nil, fmt.Errorf("nrp: reading norm permutation: %w", err)
	}
	seen := make([]bool, n)
	for _, v := range perm {
		if v < 0 || int(v) >= n || seen[v] {
			return nil, fmt.Errorf("nrp: corrupt norm permutation (node %d)", v)
		}
		seen[v] = true
	}
	return &prunedKernel{perm: perm}, nil
}

// bind copies Y's rows into scan order; the reordered copy is never
// persisted (it is cheaper to copy than to store twice).
//
// Under WithShardSlice the permutation is filtered to the slice's node
// range first: a subsequence of a norm-sorted sequence stays sorted, so
// the early-exit bound is unchanged and per-slice results remain exact
// over the slice's candidates.
func (p *prunedKernel) bind(emb *Embedding, cfg *indexConfig) error {
	n, dim := emb.N(), emb.Dim()
	if rlo, rhi := cfg.candRange(n); rlo != 0 || rhi != n {
		kept := make([]int32, 0, rhi-rlo)
		for _, v := range p.perm {
			if int(v) >= rlo && int(v) < rhi {
				kept = append(kept, v)
			}
		}
		p.perm = kept
	}
	m := len(p.perm)
	p.norms, p.ys = make([]float64, m), matrix.NewDense(m, dim)
	par.New(cfg.buildThreads).For(m, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(p.ys.Row(i), emb.Y.Row(int(p.perm[i])))
			p.norms[i] = matrix.Norm2(p.ys.Row(i))
		}
	})
	// The early-exit bound assumes positions are in non-increasing norm
	// order; a bijective but shuffled permutation from a snapshot would
	// silently drop results, so reject it here.
	for i := 1; i < m; i++ {
		if p.norms[i] > p.norms[i-1] {
			return fmt.Errorf("nrp: corrupt norm permutation (norms not sorted at position %d)", i)
		}
	}
	return nil
}

func (*prunedKernel) snapshotBackend() Backend { return BackendPruned }

// writePayload persists the full permutation; SaveIndex has already
// refused an index whose permutation bind filtered to a slice.
func (p *prunedKernel) writePayload(bw *bufio.Writer) error {
	return binary.Write(bw, binary.LittleEndian, p.perm)
}

func (p *prunedKernel) search(ctx context.Context, ix *index, u, k int, parallel bool) ([]Neighbor, QueryStats, error) {
	// m is the number of scan positions: all n nodes, or the slice's
	// share when the permutation was filtered under WithShardSlice.
	m := len(p.perm)
	xu := ix.emb.X.Row(u)
	xnorm := matrix.Norm2(xu)
	scan := func(ctx context.Context, w, shards int, h *topkHeap) (scanned, pruned int, err error) {
		steps := 0
		for pos := w; pos < m; pos += shards {
			if steps%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return scanned, pruned, err
				}
			}
			steps++
			// Positions are in decreasing ‖Y‖ order: once the heap is full
			// and the bound cannot strictly beat its weakest entry, no
			// later position can either. The strict comparison preserves
			// exactness under the ascending-node-id tie-break: an exact
			// tie with the threshold could still displace a higher id.
			if h.full() && xnorm*p.norms[pos] < h.min().Score {
				pruned = (m - pos + shards - 1) / shards
				break
			}
			v := int(p.perm[pos])
			if v == u && !ix.cfg.includeSelf {
				continue
			}
			h.offer(v, matrix.Dot(xu, p.ys.Row(pos)))
			scanned++
		}
		return scanned, pruned, nil
	}
	return runShardScan(ctx, m, ix.cfg.shards, k, parallel, scan)
}
