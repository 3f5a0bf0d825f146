//go:build amd64

#include "textflag.h"

// func dotAVX2(a, b []int8) int32
//
// Preconditions (enforced by the Go wrapper): len(a) is a non-zero
// multiple of 16 and len(b) >= len(a).
//
// Per 16 elements: two 128-bit loads sign-extended to 16×int16
// (VPMOVSXBW), one fused multiply of adjacent-pair sums into 8×int32
// (VPMADDWD), one 8-lane add into the accumulator. Products are at most
// 2·127² per lane-pair, so the int32 lanes are exact for any dimension
// the package supports.
TEXT ·dotAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	SHRQ $4, CX
	VPXOR Y0, Y0, Y0

loop:
	VPMOVSXBW (SI), Y1
	VPMOVSXBW (DI), Y2
	VPMADDWD Y2, Y1, Y1
	VPADDD   Y1, Y0, Y0
	ADDQ     $16, SI
	ADDQ     $16, DI
	DECQ     CX
	JNZ      loop

	// Horizontal reduction of the 8 int32 lanes.
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	VZEROUPPER
	MOVL AX, ret+48(FP)
	RET
