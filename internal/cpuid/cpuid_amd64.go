package cpuid

// HasAVX reports 256-bit AVX floating-point instructions usable: CPUID
// leaf 1 sets OSXSAVE and AVX, and XCR0 has XMM and YMM state enabled.
// HasAVX2 additionally requires AVX2 (CPUID leaf 7, EBX bit 5).
var HasAVX, HasAVX2 = detect()

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (XCR0).
func xgetbv0() (eax, edx uint32)

func detect() (avx, avx2 bool) {
	_, _, c, _ := cpuidex(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if c&osxsaveBit == 0 || c&avxBit == 0 {
		return false, false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 { // XMM (bit 1) and YMM (bit 2) state
		return false, false
	}
	_, b, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	return true, b&avx2Bit != 0
}
