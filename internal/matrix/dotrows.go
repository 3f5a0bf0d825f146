package matrix

// DotRows4 scores four consecutive rows of a row-major panel against x:
// panel holds the rows back to back, len(panel) == 4·len(x), and s_r is
// the inner product of x with row r.
//
// A single Dot is one dependent add chain, so the floating-point add
// latency, not the multiplier, bounds it; four rows give the core four
// independent chains to overlap. Each chain still sums left to right,
// so every s_r is bit-identical to Dot(x, row r) — callers may mix the
// two (remainder rows) without perturbing a ranking.
func DotRows4(x, panel []float64) (s0, s1, s2, s3 float64) {
	d := len(x)
	if len(panel) != 4*d {
		panic("matrix: DotRows4 panel is not four rows of len(x)")
	}
	r0, r1, r2, r3 := panel[:d], panel[d:][:d], panel[2*d:][:d], panel[3*d:][:d]
	for i, v := range x {
		s0 += v * r0[i]
		s1 += v * r1[i]
		s2 += v * r2[i]
		s3 += v * r3[i]
	}
	return s0, s1, s2, s3
}

// Axpy4 computes y += a0·x0 + a1·x1 + a2·x2 + a3·x3 in one pass over y.
// Each element is summed left to right, y[j] + a0·x0[j] + … + a3·x3[j], so
// the result is bit-identical to Axpy(a0, x0, y) … Axpy(a3, x3, y) in that
// order, while y is loaded and stored once instead of four times. Like
// Axpy's, every product is rounded on its own: no architecture fuses it
// into the add. Where AVX is present the first len&^3 elements take the
// vector kernel (kernels_amd64.s), which rounds the same way.
func Axpy4(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	n := len(y)
	if len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		panic("matrix: Axpy4 length mismatch")
	}
	j := 0
	if useAVX {
		axpy4AVX(a0, a1, a2, a3, x0, x1, x2, x3, y)
		j = n &^ 3
	}
	axpy4Go(a0, a1, a2, a3, x0, x1, x2, x3, y, j)
}

// axpy4Go is Axpy4's Go body on the elements j ≥ from.
func axpy4Go(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64, from int) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for j := from; j < n; j++ {
		y[j] = y[j] + float64(a0*x0[j]) + float64(a1*x1[j]) + float64(a2*x2[j]) + float64(a3*x3[j])
	}
}
