#include "textflag.h"

// The kernels below use 256-bit AVX multiplies and adds, never FMA: each
// of the four lanes rounds every product and every sum exactly as the
// scalar Go expression it replaces does (Go on amd64 fuses nothing), in
// the same order, so the results are bit-identical to the Go kernels in
// kernels.go. Each handles the first len&^3 elements and leaves the rest
// to its Go wrapper; loads and stores are unaligned.

// func addMul2x4AVX(s, q0, q1, q2, q3, b0, b1, b2, b3 []float64)
//
// For each pair p < len(q0)/2 and j < len(b0)&^3, with c = len(b0):
//
//	s[2p·c+j]     += ((q0[2p]·b0[j] + q1[2p]·b1[j]) + q2[2p]·b2[j]) + q3[2p]·b3[j]
//	s[(2p+1)·c+j] += the same with q0[2p+1]…q3[2p+1]
//
// The caller guarantees q1…q3 as long as q0, b1…b3 as long as b0 and s
// at least 2·(len(q0)/2)·c long.
TEXT ·addMul2x4AVX(SB), NOSPLIT, $16-216
	MOVQ q0_len+32(FP), CX
	SHRQ $1, CX
	JZ   am_done
	MOVQ b0_len+128(FP), DX
	SHRQ $2, DX
	JZ   am_done
	MOVQ CX, pairs-8(SP)
	MOVQ DX, quads-16(SP)
	MOVQ s_base+0(FP), DI
	MOVQ q0_base+24(FP), AX
	MOVQ q1_base+48(FP), R12
	MOVQ q2_base+72(FP), R13
	MOVQ q3_base+96(FP), DX
	MOVQ b0_base+120(FP), R8
	MOVQ b1_base+144(FP), R9
	MOVQ b2_base+168(FP), R10
	MOVQ b3_base+192(FP), R11

am_pair:
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 0(R12), Y1
	VBROADCASTSD 0(R13), Y2
	VBROADCASTSD 0(DX), Y3
	VBROADCASTSD 8(AX), Y4
	VBROADCASTSD 8(R12), Y5
	VBROADCASTSD 8(R13), Y6
	VBROADCASTSD 8(DX), Y7
	MOVQ         b0_len+128(FP), SI
	SHLQ         $3, SI
	ADDQ         DI, SI
	MOVQ         quads-16(SP), CX
	XORQ         BX, BX

am_loop:
	VMOVUPD (R8)(BX*1), Y8
	VMOVUPD (R9)(BX*1), Y9
	VMOVUPD (R10)(BX*1), Y10
	VMOVUPD (R11)(BX*1), Y11
	VMULPD  Y8, Y0, Y12
	VMULPD  Y9, Y1, Y14
	VADDPD  Y14, Y12, Y12
	VMULPD  Y10, Y2, Y14
	VADDPD  Y14, Y12, Y12
	VMULPD  Y11, Y3, Y14
	VADDPD  Y14, Y12, Y12
	VADDPD  (DI)(BX*1), Y12, Y12
	VMOVUPD Y12, (DI)(BX*1)
	VMULPD  Y8, Y4, Y13
	VMULPD  Y9, Y5, Y15
	VADDPD  Y15, Y13, Y13
	VMULPD  Y10, Y6, Y15
	VADDPD  Y15, Y13, Y13
	VMULPD  Y11, Y7, Y15
	VADDPD  Y15, Y13, Y13
	VADDPD  (SI)(BX*1), Y13, Y13
	VMOVUPD Y13, (SI)(BX*1)
	ADDQ    $32, BX
	DECQ    CX
	JNZ     am_loop

	ADDQ $16, AX
	ADDQ $16, R12
	ADDQ $16, R13
	ADDQ $16, DX
	MOVQ b0_len+128(FP), BX
	SHLQ $4, BX
	ADDQ BX, DI
	DECQ pairs-8(SP)
	JNZ  am_pair
	VZEROUPPER

am_done:
	RET

// func gram4AVX(g, x0, x1, x2, x3 []float64)
//
// The Gram kernel of accumGram4 for k = len(x0) a multiple of 4: for each
// pair of rows i, i+1 of the k×k matrix g (i even) and j from i&^3 to k,
//
//	g[i·k+j]     += ((x0[i]·x0[j] + x1[i]·x1[j]) + x2[i]·x2[j]) + x3[i]·x3[j]
//	g[(i+1)·k+j] += the same with x0[i+1]…x3[i+1].
//
// Each sweep is (k − i&^3)/4 whole vectors; the up to three entries it
// adds left of the diagonal fall in the lower triangle. The caller
// guarantees x1…x3 as long as x0 and g k·k long.
TEXT ·gram4AVX(SB), NOSPLIT, $0-120
	MOVQ x0_len+32(FP), R13
	TESTQ R13, R13
	JZ   gr_done
	MOVQ g_base+0(FP), DI
	MOVQ x0_base+24(FP), R8
	MOVQ x1_base+48(FP), R9
	MOVQ x2_base+72(FP), R10
	MOVQ x3_base+96(FP), R11
	MOVQ R13, R12
	SHLQ $3, R12
	XORQ DX, DX

gr_pair:
	VBROADCASTSD (R8)(DX*8), Y0
	VBROADCASTSD (R9)(DX*8), Y1
	VBROADCASTSD (R10)(DX*8), Y2
	VBROADCASTSD (R11)(DX*8), Y3
	VBROADCASTSD 8(R8)(DX*8), Y4
	VBROADCASTSD 8(R9)(DX*8), Y5
	VBROADCASTSD 8(R10)(DX*8), Y6
	VBROADCASTSD 8(R11)(DX*8), Y7
	LEAQ         (DI)(R12*1), SI
	MOVQ         DX, BX
	ANDQ         $-4, BX
	MOVQ         R13, CX
	SUBQ         BX, CX
	SHRQ         $2, CX
	SHLQ         $3, BX

gr_loop:
	VMOVUPD (R8)(BX*1), Y8
	VMOVUPD (R9)(BX*1), Y9
	VMOVUPD (R10)(BX*1), Y10
	VMOVUPD (R11)(BX*1), Y11
	VMULPD  Y8, Y0, Y12
	VMULPD  Y9, Y1, Y14
	VADDPD  Y14, Y12, Y12
	VMULPD  Y10, Y2, Y14
	VADDPD  Y14, Y12, Y12
	VMULPD  Y11, Y3, Y14
	VADDPD  Y14, Y12, Y12
	VADDPD  (DI)(BX*1), Y12, Y12
	VMOVUPD Y12, (DI)(BX*1)
	VMULPD  Y8, Y4, Y13
	VMULPD  Y9, Y5, Y15
	VADDPD  Y15, Y13, Y13
	VMULPD  Y10, Y6, Y15
	VADDPD  Y15, Y13, Y13
	VMULPD  Y11, Y7, Y15
	VADDPD  Y15, Y13, Y13
	VADDPD  (SI)(BX*1), Y13, Y13
	VMOVUPD Y13, (SI)(BX*1)
	ADDQ    $32, BX
	DECQ    CX
	JNZ     gr_loop

	LEAQ (SI)(R12*1), DI
	ADDQ $2, DX
	CMPQ DX, R13
	JLT  gr_pair
	VZEROUPPER

gr_done:
	RET

// func subMul4x2AVX(b0, b1, b2, b3, q0, q1, q2, q3, s []float64)
//
// For each pair p < len(q0)/2 and j < len(b0)&^3, with c = len(b0):
//
//	bt[j] -= qt[2p]·s[2p·c+j] + qt[2p+1]·s[(2p+1)·c+j]   (t = 0…3)
//
// The caller guarantees b1…b3 as long as b0, q1…q3 as long as q0 and s
// at least 2·(len(q0)/2)·c long.
TEXT ·subMul4x2AVX(SB), NOSPLIT, $16-216
	MOVQ q0_len+104(FP), CX
	SHRQ $1, CX
	JZ   sm_done
	MOVQ b0_len+8(FP), DX
	SHRQ $2, DX
	JZ   sm_done
	MOVQ CX, pairs-8(SP)
	MOVQ DX, quads-16(SP)
	MOVQ s_base+192(FP), DI
	MOVQ q0_base+96(FP), AX
	MOVQ q1_base+120(FP), R12
	MOVQ q2_base+144(FP), R13
	MOVQ q3_base+168(FP), DX
	MOVQ b0_base+0(FP), R8
	MOVQ b1_base+24(FP), R9
	MOVQ b2_base+48(FP), R10
	MOVQ b3_base+72(FP), R11

sm_pair:
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 0(R12), Y2
	VBROADCASTSD 8(R12), Y3
	VBROADCASTSD 0(R13), Y4
	VBROADCASTSD 8(R13), Y5
	VBROADCASTSD 0(DX), Y6
	VBROADCASTSD 8(DX), Y7
	MOVQ         b0_len+8(FP), SI
	SHLQ         $3, SI
	ADDQ         DI, SI
	MOVQ         quads-16(SP), CX
	XORQ         BX, BX

sm_loop:
	VMOVUPD (DI)(BX*1), Y8
	VMOVUPD (SI)(BX*1), Y9

	VMULPD  Y8, Y0, Y10
	VMULPD  Y9, Y1, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD (R8)(BX*1), Y12
	VSUBPD  Y10, Y12, Y12
	VMOVUPD Y12, (R8)(BX*1)

	VMULPD  Y8, Y2, Y13
	VMULPD  Y9, Y3, Y14
	VADDPD  Y14, Y13, Y13
	VMOVUPD (R9)(BX*1), Y15
	VSUBPD  Y13, Y15, Y15
	VMOVUPD Y15, (R9)(BX*1)

	VMULPD  Y8, Y4, Y10
	VMULPD  Y9, Y5, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD (R10)(BX*1), Y12
	VSUBPD  Y10, Y12, Y12
	VMOVUPD Y12, (R10)(BX*1)

	VMULPD  Y8, Y6, Y13
	VMULPD  Y9, Y7, Y14
	VADDPD  Y14, Y13, Y13
	VMOVUPD (R11)(BX*1), Y15
	VSUBPD  Y13, Y15, Y15
	VMOVUPD Y15, (R11)(BX*1)

	ADDQ $32, BX
	DECQ CX
	JNZ  sm_loop

	ADDQ $16, AX
	ADDQ $16, R12
	ADDQ $16, R13
	ADDQ $16, DX
	MOVQ b0_len+8(FP), BX
	SHLQ $4, BX
	ADDQ BX, DI
	DECQ pairs-8(SP)
	JNZ  sm_pair
	VZEROUPPER

sm_done:
	RET

// func axpy4RowsAVX(a *[4]float64, x, y0, y1, y2, y3 []float64)
//
// yt[j] += at·x[j] for t = 0…3 and j < len(x)&^3. The caller guarantees
// that y0…y3 are at least that long.
TEXT ·axpy4RowsAVX(SB), NOSPLIT, $0-128
	MOVQ x_len+16(FP), CX
	SHRQ $2, CX
	JZ   a4_done
	MOVQ a+0(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	MOVQ x_base+8(FP), SI
	MOVQ y0_base+32(FP), R8
	MOVQ y1_base+56(FP), R9
	MOVQ y2_base+80(FP), R10
	MOVQ y3_base+104(FP), R11
	XORQ BX, BX

a4_loop:
	VMOVUPD (SI)(BX*1), Y4
	VMULPD  Y4, Y0, Y5
	VADDPD  (R8)(BX*1), Y5, Y5
	VMOVUPD Y5, (R8)(BX*1)
	VMULPD  Y4, Y1, Y6
	VADDPD  (R9)(BX*1), Y6, Y6
	VMOVUPD Y6, (R9)(BX*1)
	VMULPD  Y4, Y2, Y7
	VADDPD  (R10)(BX*1), Y7, Y7
	VMOVUPD Y7, (R10)(BX*1)
	VMULPD  Y4, Y3, Y8
	VADDPD  (R11)(BX*1), Y8, Y8
	VMOVUPD Y8, (R11)(BX*1)
	ADDQ    $32, BX
	DECQ    CX
	JNZ     a4_loop
	VZEROUPPER

a4_done:
	RET

// func axpy4AVX(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)
//
// y[j] = (((y[j] + a0·x0[j]) + a1·x1[j]) + a2·x2[j]) + a3·x3[j] for
// j < len(y)&^3. The caller guarantees that x0…x3 are at least that long.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-152
	MOVQ y_len+136(FP), CX
	SHRQ $2, CX
	JZ   x4_done
	VBROADCASTSD a0+0(FP), Y0
	VBROADCASTSD a1+8(FP), Y1
	VBROADCASTSD a2+16(FP), Y2
	VBROADCASTSD a3+24(FP), Y3
	MOVQ x0_base+32(FP), R8
	MOVQ x1_base+56(FP), R9
	MOVQ x2_base+80(FP), R10
	MOVQ x3_base+104(FP), R11
	MOVQ y_base+128(FP), DI
	XORQ BX, BX

x4_loop:
	VMOVUPD (DI)(BX*1), Y4
	VMULPD  (R8)(BX*1), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(BX*1), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R10)(BX*1), Y2, Y7
	VADDPD  Y7, Y4, Y4
	VMULPD  (R11)(BX*1), Y3, Y8
	VADDPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(BX*1)
	ADDQ    $32, BX
	DECQ    CX
	JNZ     x4_loop
	VZEROUPPER

x4_done:
	RET
