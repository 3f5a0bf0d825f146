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
