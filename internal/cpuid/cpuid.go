// Package cpuid reports the x86 vector extensions the assembly kernels of
// internal/matrix and internal/quant may use. The probe runs once, at
// package initialization: an extension counts as present only when the
// CPU advertises it and the operating system saves its register state on
// a context switch. On other architectures every extension reads false,
// as a constant, so the compiler drops the dispatch branches.
package cpuid
