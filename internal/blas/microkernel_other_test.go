//go:build !amd64 || purego || race

package blas

import "testing"

// TestPortableBuildSelectsGoFamily: a build without the assembly — the purego
// tag, -race, or not amd64 — lists the portable family alone, so every packed
// product in this package's tests, and so every factor kernel, runs on
// microKernelGo, the fallback of hosts without AVX2/FMA; and the accessors
// report it.
func TestPortableBuildSelectsGoFamily(t *testing.T) {
	fs := families()
	if len(fs) != 1 || fs[0].isa != "go" || fs[0].bits != 0 || fs[0].tile.shape() != "6x8" || fs[0].solveStrips != nil {
		t.Fatalf("families() = %v, want the portable family alone", fs)
	}
	if got := KernelISA(); got != "go" {
		t.Fatalf("KernelISA() = %q without the assembly, want \"go\"", got)
	}
}
