//go:build amd64

package quant

import "github.com/nrp-embed/nrp/internal/cpuid"

// dotAVX2 is the assembly kernel (dot_amd64.s): Σ a_i·b_i with 16-lane
// sign-extended int16 multiplies fused into int32 pair-sums (VPMADDWD).
// len(a) must be a non-zero multiple of 16 and len(b) >= len(a).
//
//go:noescape
func dotAVX2(a, b []int8) int32

// useAVX2 gates the assembly kernel on the CPU probe.
var useAVX2 = cpuid.HasAVX2
