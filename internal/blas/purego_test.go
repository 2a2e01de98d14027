//go:build purego

package blas

import "testing"

// Under the purego tag every packed product in this package's tests — and so
// every factor kernel — runs on microKernelGo, the fallback of hosts without
// AVX2/FMA. This pins that the tag really selects it.
func TestPuregoSelectsPortableKernel(t *testing.T) {
	if got := KernelISA(); got != "go" {
		t.Fatalf("KernelISA() = %q under the purego tag, want \"go\"", got)
	}
}
