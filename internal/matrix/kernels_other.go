//go:build !amd64

package matrix

// Other architectures always take the Go kernels; the constant lets the
// compiler drop the dispatch branches and the stubs.
const useAVX = false

func addMul2x4AVX(s, q0, q1, q2, q3, b0, b1, b2, b3 []float64) {
	panic("matrix: AVX kernel without AVX")
}

func gram4AVX(g, x0, x1, x2, x3 []float64) { panic("matrix: AVX kernel without AVX") }

func subMul4x2AVX(b0, b1, b2, b3, q0, q1, q2, q3, s []float64) {
	panic("matrix: AVX kernel without AVX")
}

func axpy4RowsAVX(a *[4]float64, x, y0, y1, y2, y3 []float64) {
	panic("matrix: AVX kernel without AVX")
}

func axpy4AVX(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	panic("matrix: AVX kernel without AVX")
}
