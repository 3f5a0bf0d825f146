package matrix

// This file holds the cache-blocked, pool-parallel kernels of the dense
// layer. Every function takes a *par.Pool (nil = serial) and follows the
// engine's determinism contract:
//
//   - MulPool and MulABtPool partition output rows, so each element's
//     accumulation order matches the serial kernel exactly — results are
//     bit-identical to Mul/MulABt for every pool size.
//   - MulAtBPool, GramPool and GramRowsPool accumulate per-worker partial
//     products over row ranges and merge them in fixed tree order —
//     bit-identical for a fixed pool size, ≈machine-epsilon reassociation
//     across sizes.
//   - OrthonormalizePool (basis.go) is built from the same kind of
//     reduction — per-worker partials of qᵀb and of the panel's Gram
//     matrix merged in tree order — so it too is bit-identical for a fixed
//     pool size and differs by reassociation across sizes.
//
// The sparse products (internal/sparse) belong to the first group in both
// directions: Aᵀ·X is a row-partitioned product over the stored transpose.

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
				// Four nonzero terms per pass over orow: Axpy4 adds them in
				// order, as four Axpy calls do, and a zero is skipped, as Mul
				// skips it.
				var ks [4]int
				n := 0
				for k := k0; k < k1; k++ {
					if arow[k] == 0 {
						continue
					}
					ks[n] = k
					n++
					if n == 4 {
						Axpy4(arow[ks[0]], arow[ks[1]], arow[ks[2]], arow[ks[3]],
							b.Row(ks[0]), b.Row(ks[1]), b.Row(ks[2]), b.Row(ks[3]), orow)
						n = 0
					}
				}
				for _, k := range ks[:n] {
					Axpy(arow[k], b.Row(k), orow)
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

// GramPool returns aᵀ·a; see GramRowsPool, whose rows here are a's own.
func GramPool(p *par.Pool, a *Dense) *Dense {
	return GramRowsPool(p, a.Rows, a.Cols, func(r int, _ []float64) []float64 { return a.Row(r) })
}

// GramRowsPool returns Σ_r x_rᵀ·x_r over n rows x_r of width k that need
// not exist as a matrix: row(r, buf) returns row r, either a slice the
// caller already holds or buf (length k) after filling it. Each worker
// takes a contiguous row range four rows at a time, accumulates the upper
// triangle of its partial (half the flops of MulAtBPool), the partials
// merge in fixed tree order and the result is mirrored: bit-identical for
// a fixed pool size. Memory is one k×k partial and one 4×k buffer per
// worker, whatever n is.
func GramRowsPool(p *par.Pool, n, k int, row func(r int, buf []float64) []float64) *Dense {
	if n <= 0 {
		return NewDense(k, k)
	}
	parts := make([][]float64, p.Chunks(n))
	p.For(n, func(w, lo, hi int) {
		acc := make([]float64, k*k)
		buf := make([]float64, 5*k) // four row buffers and the zero row that pads the last group
		var x [4][]float64
		for r := lo; r < hi; r += 4 {
			for t := range x {
				x[t] = buf[4*k:]
				if r+t < hi {
					x[t] = row(r+t, buf[t*k:(t+1)*k])
				}
			}
			accumGram4(acc, x[0], x[1], x[2], x[3])
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

// accumGram4 adds the upper triangle of the Gram matrix of four rows to
// the k×k matrix g: g[i][j] += Σ_t x_t[i]·x_t[j] for j ≥ i, two rows of g
// per sweep over j so eight multiply-adds share four loads of x and two
// load/store pairs of g (the shape of accumQtB4). For k a multiple of 4
// the AVX kernel starts each sweep up to three columns left of the
// diagonal, so it is a whole number of vectors long; what it adds there
// falls in the lower triangle, which is left undefined (GramRowsPool
// mirrors the upper one over it).
func accumGram4(g, x0, x1, x2, x3 []float64) {
	k := len(x0)
	x1, x2, x3 = x1[:k], x2[:k], x3[:k]
	if useAVX && k%4 == 0 {
		gram4AVX(g[:k*k], x0, x1, x2, x3)
		return
	}
	accumGram4Go(g, x0, x1, x2, x3)
}

// accumGram4Go is accumGram4's Go body; it leaves the lower triangle alone.
func accumGram4Go(g, x0, x1, x2, x3 []float64) {
	k := len(x0)
	x1, x2, x3 = x1[:k], x2[:k], x3[:k]
	i := 0
	for ; i+2 <= k; i += 2 {
		a0, a1, a2, a3 := x0[i], x1[i], x2[i], x3[i]
		b0, b1, b2, b3 := x0[i+1], x1[i+1], x2[i+1], x3[i+1]
		g[i*k+i] += float64(a0*a0) + float64(a1*a1) + float64(a2*a2) + float64(a3*a3)
		ga := g[i*k+i+1 : (i+1)*k]
		gb := g[(i+1)*k+i+1 : (i+2)*k][:len(ga)]
		v0, v1, v2, v3 := x0[i+1:][:len(ga)], x1[i+1:][:len(ga)], x2[i+1:][:len(ga)], x3[i+1:][:len(ga)]
		for j := range ga {
			c0, c1, c2, c3 := v0[j], v1[j], v2[j], v3[j]
			ga[j] += float64(a0*c0) + float64(a1*c1) + float64(a2*c2) + float64(a3*c3)
			gb[j] += float64(b0*c0) + float64(b1*c1) + float64(b2*c2) + float64(b3*c3)
		}
	}
	if i < k {
		a0, a1, a2, a3 := x0[i], x1[i], x2[i], x3[i]
		g[i*k+i] += float64(a0*a0) + float64(a1*a1) + float64(a2*a2) + float64(a3*a3)
	}
}
