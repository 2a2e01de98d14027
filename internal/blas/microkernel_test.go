package blas

import "testing"

// TestKernelVectorBits: the width follows the installed kernels — 0 for the
// portable body, 256 for the AVX2 kernel alone, 512 with the AVX-512 pair
// beside it — while KernelISA keeps its two values.
func TestKernelVectorBits(t *testing.T) {
	single, _ := keepKernels(t)
	name := microKernelName
	defer func() { microKernelName = name }()
	for _, c := range []struct {
		name string
		isa  string
		pair microKernelFunc
		bits int
	}{
		{"go", "go", nil, 0},
		{"avx2", "avx2", nil, 256},
		{"avx512", "avx2", pairOf(single), 512},
	} {
		microKernelName, microKernel2 = c.isa, c.pair
		if got := KernelVectorBits(); got != c.bits {
			t.Errorf("%s: KernelVectorBits() = %d, want %d", c.name, got, c.bits)
		}
		if got := KernelISA(); got != c.isa {
			t.Errorf("%s: KernelISA() = %q, want %q", c.name, got, c.isa)
		}
	}
}
