//go:build amd64 && !purego && !race

package blas

// On amd64 the packed micro-kernel has an AVX2/FMA implementation: the 6×8
// accumulator tile occupies twelve YMM registers, each k step broadcasts six
// A values — read from A's own rows, or from the packed tail strip, at the
// strides the caller passes — and streams two B vectors, and sixteen flops
// retire per FMA pair — roughly an order of magnitude over the scalar mul+add
// ceiling the Go compiler can reach (it never vectorizes float64 loops and
// does not emit FMA on amd64) — and after the last k step the same registers
// are added to (or, sign-flipped, subtracted from) the six rows of C they
// belong to. The row pack's four-row pass has an AVX2 body too, a 4×4
// register transpose, and so has the eight-row triangular base solve of
// factor.go.
// Selection happens once at init via CPUID; hosts without AVX2, FMA or
// OS-enabled YMM state keep the portable bodies, and so does any build with
// the purego tag (`make test-purego`), which leaves this file out so that CI
// on an AVX2 host still runs every packed product and factor kernel on the
// fallback.
//
// A -race build leaves it out as well. Every read of A and B and every write
// of C in a packed product happens in this file's assembly, which the
// race detector does not instrument: with it in, two tile tasks missing a
// dependency edge would race on a tile unseen. With it out, `make race` runs
// the portable kernels, whose accesses are ordinary instrumented Go.

func init() {
	if cpuHasAVX2FMA() {
		microKernel = microKernelAVX2
		packFour = packFourAVX2
		solveStrip = solveStripAVX2
		microKernelName = "avx2"
	}
}

func microKernelAVX2(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool) {
	if kb <= 0 {
		return
	}
	// Re-slice so bounds checks cover the exact extent the assembly touches:
	// the last A element it reads is row microM−1 at step kb−1.
	a = a[:(microM-1)*ars+(kb-1)*aks+1]
	pb = pb[: kb*microN : kb*microN]
	c = c[:(microM-1)*ldc+microN]
	microAVX2(int64(kb), &a[0], int64(ars), int64(aks), &pb[0], &c[0], int64(ldc), neg)
}

// microAVX2 applies c[i*ldc+j] ±= Σ_p a[p*aks+i*ars]·pb[p*8+j] for a full 6×8
// tile, kb ≥ 1 (implemented in microkernel_amd64.s).
//
//go:noescape
func microAVX2(kb int64, a *float64, ars, aks int64, pb, c *float64, ldc int64, neg bool)

// packFourAVX2 transposes four k steps at a time in registers and leaves the
// kb mod 4 tail to the portable body.
func packFourAVX2(kb int, src []float64, ld int, dst []float64, w int) {
	k4 := kb &^ 3
	if k4 > 0 {
		src, dst := src[:3*ld+k4], dst[:(k4-1)*w+4]
		transpose4AVX2(int64(k4), &src[0], int64(ld), &dst[0], int64(w))
	}
	if k4 < kb {
		packFourGo(kb-k4, src[k4:], ld, dst[k4*w:], w)
	}
}

// transpose4AVX2 writes dst[p*w+r] = src[r*ld+p] for r < 4 and p < k4, k4 a
// positive multiple of four (implemented in microkernel_amd64.s).
//
//go:noescape
func transpose4AVX2(k4 int64, src *float64, ld int64, dst *float64, w int64)

// solveStripAVX2 is solveStrip on two YMM registers per column.
func solveStripAVX2(n int, x, tri []float64) {
	if n <= 0 {
		return
	}
	x, tri = x[:n*stripRows], tri[:(n-1)*factorBase+n]
	solve8AVX2(int64(n), &x[0], &tri[0])
}

// solve8AVX2 is solveStripGo for 1 ≤ n ≤ factorBase (implemented in
// microkernel_amd64.s; the diagonal stride there is factorBase+1 doubles).
//
//go:noescape
func solve8AVX2(n int64, x, tri *float64)

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
