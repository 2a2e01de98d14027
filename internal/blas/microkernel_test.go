package blas

import "testing"

// TestKernelVectorBits: the width and the shape follow the installed tile —
// 0 bits for the portable body, 256 for the AVX2 kernel, 512 for the 16-wide
// AVX-512 tile — while KernelISA keeps its two values.
func TestKernelVectorBits(t *testing.T) {
	keepTile(t)
	name := microKernelName
	defer func() { microKernelName = name }()
	for _, c := range []struct {
		name  string
		isa   string
		tile  regTile
		bits  int
		shape string
	}{
		{"go", "go", regTile{microKernelGo, 6, microN}, 0, "6x8"},
		{"avx2", "avx2", regTile{microKernelGo, 6, microN}, 256, "6x8"},
		{"avx512", "avx2", tileFrom6x8(microKernelGo, 8, 2*microN), 512, "8x16"},
	} {
		microKernelName, tile = c.isa, c.tile
		if got := KernelVectorBits(); got != c.bits {
			t.Errorf("%s: KernelVectorBits() = %d, want %d", c.name, got, c.bits)
		}
		if got := KernelISA(); got != c.isa {
			t.Errorf("%s: KernelISA() = %q, want %q", c.name, got, c.isa)
		}
		if got := KernelTile(); got != c.shape {
			t.Errorf("%s: KernelTile() = %q, want %q", c.name, got, c.shape)
		}
	}
}
