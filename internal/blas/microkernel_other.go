//go:build !amd64 || purego || race

package blas

// families lists the portable family alone: the assembly is amd64 only, and
// the purego tag and -race leave it out (see microkernel_amd64.go).
func families() []family { return []family{goFamily()} }
