package blas

// The packed GEMM path bottoms out in a register-tiled micro-kernel: one
// microM×kb strip of packed A times one kb×microN strip of packed B, summed
// over k in registers and then applied to a microM×microN tile of C in place,
// C[0:microM, 0:microN] ±= Σₚ a·b, at whatever row stride that tile has. Both
// operand strips are k-major — element (p, i) of the A strip lives at
// pa[p*microM+i], element (p, j) of the B strip at pb[p*microN+j] — so the
// kernel streams both buffers with unit stride and keeps the whole
// accumulator tile in registers, the structure GotoBLAS2 (the "highly
// optimized" library of the paper's case study) builds its inner loop
// around. The k-sum is formed first and added to C once, so a tile's result
// does not depend on who does the adding: the kernel on C itself (a full
// tile), or the strip loop from a zeroed scratch tile the kernel was pointed
// at instead (a tile C's edge or a triangle's diagonal clips, see
// packedStrip). That scratch is the only accumulator outside the registers.
const (
	// microM×microN is the register tile: 4×8 doubles fills the 8 YMM
	// accumulators of the AVX2 kernel and still fits the pure-Go fallback's
	// live-value budget.
	microM = 4
	microN = 8
)

// microAccum is a micro-tile outside C, row-major: the scratch a clipped
// tile's k-sum lands in, and the portable kernel's accumulator.
type microAccum [microM * microN]float64

// microKernel applies one full micro-tile product to C: for i < microM and
// j < microN, c[i*ldc+j] gains (neg: loses) Σ_{p<kb} pa[p*microM+i]·pb[p*microN+j],
// the sum formed first and added once. It points at the fastest
// implementation available on this CPU: the portable Go reference below, or
// the AVX2/FMA assembly kernel installed by init on amd64 hosts whose CPUID
// reports support.
var microKernel = microKernelGo

// microKernelName labels the selected implementation for benchmark reports.
var microKernelName = "go"

// KernelISA reports which micro-kernel implementation is active ("avx2" or
// "go"), so benchmark artifacts record what they measured.
func KernelISA() string { return microKernelName }

// microKernelGo is the portable reference micro-kernel. The accumulator tile
// lives in a local array so the compiler can keep rows in registers; operand
// strips are re-sliced once to hoist bounds checks out of the k loop. Every
// k step is applied, zeros included: 0·Inf and 0·NaN are NaN here as they are
// in the assembly, and the zero rows a short strip is padded with produce
// sums the clipped write-back never reads.
func microKernelGo(kb int, pa, pb, c []float64, ldc int, neg bool) {
	var acc microAccum
	pa = pa[: kb*microM : kb*microM]
	pb = pb[: kb*microN : kb*microN]
	for p := 0; p < kb; p++ {
		bv := pb[p*microN : p*microN+microN : p*microN+microN]
		av := pa[p*microM : p*microM+microM]
		for i, ai := range av {
			row := acc[i*microN : i*microN+microN]
			for q, bq := range bv {
				row[q] += ai * bq
			}
		}
	}
	for i := 0; i < microM; i++ {
		applyRow(c[i*ldc:][:microN], acc[i*microN:], neg)
	}
}

// applyRow is the write-back of one row of a k-sum outside the assembly:
// dst[q] ±= sum[q] over the whole of dst.
func applyRow(dst, sum []float64, neg bool) {
	sum = sum[:len(dst)]
	if neg {
		for q, v := range sum {
			dst[q] -= v
		}
	} else {
		for q, v := range sum {
			dst[q] += v
		}
	}
}
