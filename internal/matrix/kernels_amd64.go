package matrix

import "github.com/nrp-embed/nrp/internal/cpuid"

// useAVX routes the panel kernels and Axpy to kernels_amd64.s.
var useAVX = cpuid.HasAVX

//go:noescape
func addMul2x4AVX(s, q0, q1, q2, q3, b0, b1, b2, b3 []float64)

//go:noescape
func gram4AVX(g, x0, x1, x2, x3 []float64)

//go:noescape
func subMul4x2AVX(b0, b1, b2, b3, q0, q1, q2, q3, s []float64)

//go:noescape
func axpy4RowsAVX(a *[4]float64, x, y0, y1, y2, y3 []float64)

//go:noescape
func axpy4AVX(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)
