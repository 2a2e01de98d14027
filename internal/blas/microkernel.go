package blas

import "strconv"

// The packed GEMM path bottoms out in a register-tiled micro-kernel: one
// tile.m-row strip of A times a kb×tile.n block of packed B, summed over k in
// registers and then applied to a tile.m×tile.n tile of C in place,
// C[0:m, 0:n] ±= Σₚ a·b, at whatever row stride that tile has. B is packed in
// k-major strips microN wide — element (p, j) of a strip lives at
// pb[p*microN+j] — so the kernel streams it with unit stride; a 16-wide tile
// reads two adjacent strips. The A strip is read where it lies: element
// (p, i) is a[p*aks+i*ars], which for a full strip is A's own rows (ars the
// row stride, aks 1) and for the zero-padded tail strip the driver packs is a
// k-major buffer (ars 1, aks tile.m). One kernel, two stride pairs. An 8-row
// strip of a 128-deep panel is 8 kB and stays in L1 across the whole row of
// micro-tiles it multiplies, so copying it first — GotoBLAS2's A pack, which
// exists to stream a large block from L2 — would only add a pass. The whole
// accumulator tile lives in registers, the structure GotoBLAS2 (the "highly
// optimized" library of the paper's case study) builds its inner loop around.
// The k-sum is formed first and added to C once, so a tile's result does not
// depend on who does the adding: the kernel on C itself (a full tile), or the
// strip loop from a zeroed scratch tile (one C's edge or a triangle's diagonal
// clips, see packedStrip), the only accumulator outside the registers.

// microN is the width of a packed B strip: eight doubles, one ZMM or two YMM
// registers.
const microN = 8

// regTile is a register tile: a micro-kernel and the rows and columns of C
// each of its calls applies.
type regTile struct {
	kernel microKernelFunc
	m, n   int
}

// tile is the one register tile every packed product runs on: 6×8 for the
// portable Go body and the AVX2 kernel (twelve of sixteen YMM registers hold
// accumulators, the Haswell-class shape of BLIS), and 8×16 where init finds
// AVX-512 (sixteen of thirty-two ZMM registers). Eight rows divide 128 and
// every half splitAt makes of it, so a 128-tile has no short A strip.
var tile = regTile{microKernelGo, 6, microN}

// microAccum is a micro-tile outside C, row-major, as large as the largest
// tile: the scratch a clipped tile's k-sum lands in.
type microAccum [8 * 2 * microN]float64

// microKernelFunc is a tile's kernel: for i < tile.m and j < tile.n,
// c[i*ldc+j] gains (neg: loses) Σ_{p<kb} a[p*aks+i*ars]·b(p, j), b(p, j) =
// pb[(j/microN)*kb*microN + p*microN + j%microN], the sum formed first (in
// assembly one FMA per step from zero, p in order) and added once.
type microKernelFunc = func(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool)

// microKernelName labels the selected implementation for benchmark reports.
var microKernelName = "go"

// KernelISA reports which micro-kernel implementation is active ("avx2" or
// "go"), so benchmark artifacts record what they measured. It says "avx2" on
// AVX-512 hosts too, where the 8×16 tile runs: the benchmark keys its 256-bit
// FMA probe and the host reference that scales every workload's latency on
// this string, so a new value would change how every end-to-end number is
// scaled. KernelVectorBits reports the width, KernelTile the shape.
func KernelISA() string { return microKernelName }

// KernelVectorBits reports the widest vector registers the installed tile
// uses: 512 for the 16-wide AVX-512 tile, 256 for the AVX2 kernel, 0 for the
// portable Go body.
func KernelVectorBits() int {
	switch {
	case tile.n == 2*microN:
		return 512
	case microKernelName == "avx2":
		return 256
	}
	return 0
}

// KernelTile reports the installed register tile, "8x16" or "6x8".
func KernelTile() string { return tile.shape() }

// shape names t as rows×columns.
func (t regTile) shape() string { return strconv.Itoa(t.m) + "x" + strconv.Itoa(t.n) }

// microKernelGo is the portable reference micro-kernel, a 6×8 tile. It goes a
// row of the tile at a time, so the row's eight sums are locals the compiler
// keeps in registers across the k loop; the row of A and the B strip are
// re-sliced once to hoist bounds checks out of it. Each sum still runs over p in order
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
	for i := 0; i < 6; i++ {
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
