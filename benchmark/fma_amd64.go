package main

import "repro/internal/blas"

// fmaLoopAVX2 issues iters × 10 independent 256-bit fused multiply-adds.
func fmaLoopAVX2(iters int64)

// fmaChainsScalar issues iters × 8 independent scalar fused multiply-adds.
func fmaChainsScalar(iters int64)

// hasAVX2 follows the kernel blas selected: it picks its AVX2 micro-kernel
// exactly when the CPU has AVX2 and FMA.
func hasAVX2() bool { return blas.KernelISA() == "avx2" }

// fmaLoop runs iters iterations of the widest FMA loop the CPU has and
// returns the flops performed.
func fmaLoop(iters int) float64 {
	if hasAVX2() {
		fmaLoopAVX2(int64(iters))
		return float64(iters) * 10 * 4 * 2
	}
	return fmaLoopScalar(iters)
}

func fmaKind() string {
	if hasAVX2() {
		return "10 chains of 256-bit VFMADD231PD"
	}
	return "8 chains of scalar math.FMA"
}

// refCompute is the compute half of the host-speed reference: the aligned
// assembly chains where the CPU has FMA, the Go loop elsewhere.
func refCompute(iters int) {
	if hasAVX2() {
		fmaChainsScalar(int64(iters))
		return
	}
	fmaLoopScalar(iters)
}
