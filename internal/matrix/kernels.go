package matrix

// The panel kernels behind the basis projection (accumQtB4, subQS4) and
// CholeskyQR's forward substitution (axpy4Rows); accumGram4 (parblas.go)
// and Axpy4 (dotrows.go) dispatch the same way. Each has an AVX body
// (kernels_amd64.s) for the first len&^3 columns and a Go body for the
// rest, and for all of them where AVX is missing. The two compute every
// element with the same IEEE multiplies and adds in the same order, so
// which one ran never shows in a result. The Go bodies convert every
// product to float64 explicitly: a conversion rounds, so no compiler may
// fuse the product into the add that follows (the AVX bodies never use
// FMA).

// addMul2x4 adds to two rows of s the rows b0…b3 weighted by one pair of
// entries of q0…q3, for every pair: with c = len(b0), row r of s at
// s[r·c:] and j < c,
//
//	s[2p·c+j]     += q0[2p]·b0[j] + q1[2p]·b1[j] + q2[2p]·b2[j] + q3[2p]·b3[j]
//	s[(2p+1)·c+j] += the same with q0[2p+1]…q3[2p+1],
//
// each sum taken left to right. An odd last entry of q0…q3 is left to the
// caller.
func addMul2x4(s, q0, q1, q2, q3, b0, b1, b2, b3 []float64) {
	m, c := len(q0)&^1, len(b0)
	if m == 0 || c == 0 {
		return
	}
	q0, q1, q2, q3 = q0[:m], q1[:m], q2[:m], q3[:m]
	b1, b2, b3 = b1[:c], b2[:c], b3[:c]
	s = s[:m*c]
	j := 0
	if useAVX {
		addMul2x4AVX(s, q0, q1, q2, q3, b0, b1, b2, b3)
		j = c &^ 3
	}
	addMul2x4Go(s, q0, q1, q2, q3, b0, b1, b2, b3, j)
}

// addMul2x4Go is addMul2x4 on the columns j ≥ from.
func addMul2x4Go(s, q0, q1, q2, q3, b0, b1, b2, b3 []float64, from int) {
	c := len(b0)
	if from >= c {
		return
	}
	b1, b2, b3 = b1[:c], b2[:c], b3[:c]
	for p := 0; p+2 <= len(q0); p += 2 {
		x0, x1, x2, x3 := q0[p], q1[p], q2[p], q3[p]
		y0, y1, y2, y3 := q0[p+1], q1[p+1], q2[p+1], q3[p+1]
		sx := s[p*c : (p+1)*c]
		sy := s[(p+1)*c : (p+2)*c]
		for j := from; j < c; j++ {
			v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
			sx[j] += float64(x0*v0) + float64(x1*v1) + float64(x2*v2) + float64(x3*v3)
			sy[j] += float64(y0*v0) + float64(y1*v1) + float64(y2*v2) + float64(y3*v3)
		}
	}
}

// subMul4x2 subtracts from each row bt two rows of s weighted by one pair
// of entries of qt, for every pair: with c = len(b0), row r of s at
// s[r·c:] and j < c,
//
//	bt[j] -= qt[2p]·s[2p·c+j] + qt[2p+1]·s[(2p+1)·c+j]   (t = 0…3).
//
// An odd last entry of q0…q3 is left to the caller.
func subMul4x2(b0, b1, b2, b3, q0, q1, q2, q3, s []float64) {
	m, c := len(q0)&^1, len(b0)
	if m == 0 || c == 0 {
		return
	}
	b1, b2, b3 = b1[:c], b2[:c], b3[:c]
	q0, q1, q2, q3 = q0[:m], q1[:m], q2[:m], q3[:m]
	s = s[:m*c]
	j := 0
	if useAVX {
		subMul4x2AVX(b0, b1, b2, b3, q0, q1, q2, q3, s)
		j = c &^ 3
	}
	subMul4x2Go(b0, b1, b2, b3, q0, q1, q2, q3, s, j)
}

// subMul4x2Go is subMul4x2 on the columns j ≥ from.
func subMul4x2Go(b0, b1, b2, b3, q0, q1, q2, q3, s []float64, from int) {
	c := len(b0)
	if from >= c {
		return
	}
	b1, b2, b3 = b1[:c], b2[:c], b3[:c]
	for p := 0; p+2 <= len(q0); p += 2 {
		x0, x1, x2, x3 := q0[p], q1[p], q2[p], q3[p]
		y0, y1, y2, y3 := q0[p+1], q1[p+1], q2[p+1], q3[p+1]
		sx := s[p*c : (p+1)*c]
		sy := s[(p+1)*c : (p+2)*c]
		for j := from; j < c; j++ {
			u, v := sx[j], sy[j]
			b0[j] -= float64(x0*u) + float64(y0*v)
			b1[j] -= float64(x1*u) + float64(y1*v)
			b2[j] -= float64(x2*u) + float64(y2*v)
			b3[j] -= float64(x3*u) + float64(y3*v)
		}
	}
}

// axpy4Rows is Axpy on four rows at once, sharing the loads of x:
// yt[j] += at·x[j] for t = 0…3 and j < len(x). The y rows must be at
// least as long as x.
func axpy4Rows(a *[4]float64, x, y0, y1, y2, y3 []float64) {
	n := len(x)
	y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
	j := 0
	if useAVX {
		axpy4RowsAVX(a, x, y0, y1, y2, y3)
		j = n &^ 3
	}
	axpy4RowsGo(a, x, y0, y1, y2, y3, j)
}

// axpy4RowsGo is axpy4Rows on the elements j ≥ from.
func axpy4RowsGo(a *[4]float64, x, y0, y1, y2, y3 []float64, from int) {
	n := len(x)
	y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	for j := from; j < n; j++ {
		v := x[j]
		y0[j] += float64(a0 * v)
		y1[j] += float64(a1 * v)
		y2[j] += float64(a2 * v)
		y3[j] += float64(a3 * v)
	}
}
