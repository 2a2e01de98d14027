package blas

import "testing"

// TestKernelVectorBits: the width and the shape follow the family's tile —
// 0 bits for the portable 6×8 body, 256 for the 6×8 AVX2 kernel, 512 for the
// 8×16 AVX-512 tile — and KernelVectorBits and KernelTile report the host's.
func TestKernelVectorBits(t *testing.T) {
	type triple struct {
		isa   string
		bits  int
		shape string
	}
	known := map[triple]bool{{"go", 0, "6x8"}: true, {"avx2", 256, "6x8"}: true, {"avx2", 512, "8x16"}: true}
	for i, f := range families() {
		if got := (triple{f.isa, f.bits, f.tile.shape()}); !known[got] {
			t.Errorf("family %d is %v, not one of %v", i, got, known)
		}
	}
	if got := KernelVectorBits(); got != host.bits {
		t.Errorf("KernelVectorBits() = %d, host family has %d", got, host.bits)
	}
	if got := KernelTile(); got != host.tile.shape() {
		t.Errorf("KernelTile() = %q, host family has %q", got, host.tile.shape())
	}
}
