package cpuid

import "testing"

// TestAVX2ImpliesAVX: AVX2 extends AVX's register state, so a probe that
// reports the one without the other has misread CPUID or XCR0.
func TestAVX2ImpliesAVX(t *testing.T) {
	if HasAVX2 && !HasAVX {
		t.Fatal("HasAVX2 set without HasAVX")
	}
}
