package blas

// The packed GEMM path bottoms out in a register-tiled micro-kernel: one
// microM-row strip of A times one kb×microN strip of packed B, summed over k
// in registers and then applied to a microM×microN tile of C in place,
// C[0:microM, 0:microN] ±= Σₚ a·b, at whatever row stride that tile has. The
// B strip is k-major — element (p, j) lives at pb[p*microN+j] — so the kernel
// streams it with unit stride. The A strip is read where it lies: element
// (p, i) is a[p*aks+i*ars], which for a full strip is A's own rows (ars the
// row stride, aks 1) and for the zero-padded tail strip the driver packs is a
// k-major buffer (ars 1, aks microM). One kernel, two stride pairs. A 6-row
// strip of a 128-deep panel is 6 kB and stays in L1 across the whole row of
// micro-tiles it multiplies, so copying it first — GotoBLAS2's A pack, which
// exists to stream a large block from L2 — would only add a pass. The whole
// accumulator tile lives in registers, the structure GotoBLAS2 (the "highly
// optimized" library of the paper's case study) builds its inner loop around.
// The k-sum is formed first and added to C once, so a tile's result does not
// depend on who does the adding: the kernel on C itself (a full tile), or the
// strip loop from a zeroed scratch tile the kernel was pointed at instead (a
// tile C's edge or a triangle's diagonal clips, see packedStrip). That scratch
// is the only accumulator outside the registers.
const (
	// microM×microN is the register tile: 6×8 doubles fills 12 of the 16 YMM
	// registers of the AVX2 kernel with accumulators and leaves two for B and
	// two for the A broadcasts — the Haswell-class shape of BLIS.
	microM = 6
	microN = 8
)

// microAccum is a micro-tile outside C, row-major: the scratch a clipped
// tile's k-sum lands in.
type microAccum [microM * microN]float64

// microKernel applies one full micro-tile product to C: for i < microM and
// j < microN, c[i*ldc+j] gains (neg: loses) Σ_{p<kb} a[p*aks+i*ars]·pb[p*microN+j],
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

// microKernelGo is the portable reference micro-kernel. It goes a row of the
// tile at a time, so the row's eight sums are locals the compiler keeps in
// registers across the k loop; the row of A and the B strip are re-sliced
// once to hoist bounds checks out of it. Each sum still runs over p in order
// and is complete before it is added to C: the sum-then-add of the contract.
// Every k step is applied, zeros included: 0·Inf and 0·NaN are NaN here as
// they are in the assembly, and the zero rows a short strip is padded with
// produce sums the clipped write-back never reads.
func microKernelGo(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool) {
	if kb <= 0 {
		return
	}
	n := (kb-1)*aks + 1
	pb = pb[: kb*microN : kb*microN]
	for i := 0; i < microM; i++ {
		ai := a[i*ars:][:n]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for p, at := 0, 0; p < kb; p, at = p+1, at+aks {
			v, b := ai[at], pb[p*microN:p*microN+microN:p*microN+microN]
			s0 += v * b[0]
			s1 += v * b[1]
			s2 += v * b[2]
			s3 += v * b[3]
			s4 += v * b[4]
			s5 += v * b[5]
			s6 += v * b[6]
			s7 += v * b[7]
		}
		sum := [microN]float64{s0, s1, s2, s3, s4, s5, s6, s7}
		applyRow(c[i*ldc:][:microN], sum[:], neg)
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
