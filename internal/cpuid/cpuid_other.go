//go:build !amd64

package cpuid

// HasAVX and HasAVX2 are x86 extensions, absent on this architecture.
const HasAVX, HasAVX2 = false, false
