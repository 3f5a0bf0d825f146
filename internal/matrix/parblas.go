package matrix

// This file holds the cache-blocked, pool-parallel kernels of the dense
// layer. Every function takes a *par.Pool (nil = serial) and follows the
// engine's determinism contract:
//
//   - MulPool and MulABtPool partition output rows, so each element's
//     accumulation order matches the serial kernel exactly — results are
//     bit-identical to Mul/MulABt for every pool size.
//   - MulAtBPool and GramPool accumulate per-worker partial products over
//     row ranges and merge them in fixed tree order — bit-identical for a
//     fixed pool size, ≈machine-epsilon reassociation across sizes.
//   - OrthonormalizePool (basis.go) is built from the same kind of
//     reduction — per-worker partials of qᵀb and of the panel's Gram
//     matrix merged in tree order — so it too is bit-identical for a fixed
//     pool size and differs by reassociation across sizes.

import "github.com/nrp-embed/nrp/internal/par"

// mulKBlock is the k-panel height of the blocked GEMM inner loops: panels
// of b this tall stay resident in L1/L2 while a chunk of output rows
// streams over them. Blocking over k preserves each output element's
// ascending-k accumulation order, so results match the unblocked kernel
// bit for bit.
const mulKBlock = 256

// MulPool returns a·b, row-partitioned across the pool and cache-blocked
// over the inner dimension. Bit-identical to Mul for every pool size.
func MulPool(p *par.Pool, a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic("matrix: MulPool shape mismatch")
	}
	out := NewDense(a.Rows, b.Cols)
	p.For(a.Rows, func(_, lo, hi int) {
		for k0 := 0; k0 < a.Cols; k0 += mulKBlock {
			k1 := k0 + mulKBlock
			if k1 > a.Cols {
				k1 = a.Cols
			}
			for i := lo; i < hi; i++ {
				arow := a.Row(i)
				orow := out.Row(i)
				for k := k0; k < k1; k++ {
					av := arow[k]
					if av == 0 {
						continue
					}
					brow := b.Row(k)
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	})
	return out
}

// MulABtPool returns a·bᵀ, row-partitioned across the pool. Each output
// element is one serial dot product, so results are bit-identical to
// MulABt for every pool size.
func MulABtPool(p *par.Pool, a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic("matrix: MulABtPool shape mismatch")
	}
	out := NewDense(a.Rows, b.Rows)
	p.For(a.Rows, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := 0; j < b.Rows; j++ {
				orow[j] = Dot(arow, b.Row(j))
			}
		}
	})
	return out
}

// MulAtBPool returns aᵀ·b. The accumulation runs over the shared row
// dimension, so each worker reduces its row range into a private
// a.Cols×b.Cols partial and the partials merge in fixed tree order:
// bit-identical for a fixed pool size.
func MulAtBPool(p *par.Pool, a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic("matrix: MulAtBPool shape mismatch")
	}
	nc := p.Chunks(a.Rows)
	if nc <= 1 {
		return MulAtB(a, b)
	}
	parts := make([][]float64, nc)
	p.For(a.Rows, func(w, lo, hi int) {
		acc := make([]float64, a.Cols*b.Cols)
		for r := lo; r < hi; r++ {
			arow := a.Row(r)
			brow := b.Row(r)
			for i, av := range arow {
				if av == 0 {
					continue
				}
				orow := acc[i*b.Cols : (i+1)*b.Cols]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
		parts[w] = acc
	})
	return &Dense{Rows: a.Cols, Cols: b.Cols, Data: p.TreeReduce(parts)}
}

// GramPool returns aᵀ·a, exploiting symmetry: each worker accumulates
// only the upper triangle of its row-range partial (half the flops of
// MulAtBPool), the partials merge in fixed tree order, and the result is
// mirrored. Bit-identical for a fixed pool size.
func GramPool(p *par.Pool, a *Dense) *Dense {
	k := a.Cols
	if a.Rows == 0 {
		return NewDense(k, k)
	}
	nc := p.Chunks(a.Rows)
	parts := make([][]float64, nc)
	p.For(a.Rows, func(w, lo, hi int) {
		acc := make([]float64, k*k)
		for r := lo; r < hi; r++ {
			arow := a.Row(r)
			for i, av := range arow {
				if av == 0 {
					continue
				}
				orow := acc[i*k : (i+1)*k]
				for j := i; j < k; j++ {
					orow[j] += av * arow[j]
				}
			}
		}
		parts[w] = acc
	})
	out := &Dense{Rows: k, Cols: k, Data: p.TreeReduce(parts)}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			out.Data[j*k+i] = out.Data[i*k+j]
		}
	}
	return out
}
