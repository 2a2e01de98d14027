//go:build amd64 && !purego

package blas

// On amd64 the packed micro-kernel has an AVX2/FMA implementation: the 4×8
// accumulator tile occupies eight YMM registers, each k step broadcasts four
// A values and streams two B vectors, and sixteen flops retire per FMA pair
// — roughly an order of magnitude over the scalar mul+add ceiling the Go
// compiler can reach (it never vectorizes float64 loops and does not emit
// FMA on amd64). Selection happens once at init via CPUID; hosts without
// AVX2, FMA or OS-enabled YMM state keep the portable kernel, and so does any
// build with the purego tag (`make test-purego`), which leaves this file out
// so that CI on an AVX2 host still runs every packed product and factor
// kernel on the fallback.

func init() {
	if cpuHasAVX2FMA() {
		microKernel = microKernelAVX2
		microKernelName = "avx2"
	}
}

func microKernelAVX2(kb int, pa, pb []float64, out *microAccum) {
	if kb <= 0 {
		*out = microAccum{}
		return
	}
	// Re-slice so the race detector and bounds checks see the exact extent
	// the assembly will read.
	pa = pa[: kb*microM : kb*microM]
	pb = pb[: kb*microN : kb*microN]
	microAVX2(int64(kb), &pa[0], &pb[0], &out[0])
}

// microAVX2 computes out[i*8+j] = Σ_p pa[p*4+i]·pb[p*8+j] for a full 4×8
// tile (implemented in microkernel_amd64.s).
//
//go:noescape
func microAVX2(kb int64, pa, pb, out *float64)

// cpuHasAVX2FMA reports whether this CPU and OS support the AVX2/FMA kernel:
// CPUID must advertise FMA and AVX2, and XGETBV must confirm the OS saves
// XMM+YMM state on context switch.
func cpuHasAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
	)
	if c1&fma == 0 || c1&osxsave == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&0x6 != 0x6 { // XMM and YMM state enabled
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

// cpuid executes CPUID with the given EAX/ECX inputs.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX=0 (extended control register 0).
func xgetbv() (eax, edx uint32)
