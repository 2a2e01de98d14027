package blas

import (
	"sync"
	"sync/atomic"
)

// The packed driver: the GotoBLAS-style kernel the paper's case study calls
// "highly optimized", and the one place every matrix product of this package
// — DGEMM and the updates inside the factorization kernels of factor.go —
// is computed. C += σ·A·op(B) is decomposed into panels packDepth deep;
// within each panel, op(B) is packed once into k-major strips of microN
// columns, zero-padded to full strips, so the register-tiled micro-kernel
// (microkernel.go) streams B with unit stride whatever b's stride. A is not
// copied: the kernel reads a full strip of microM rows where it lies, and
// only the last mb mod microM rows of a row panel are packed, zero-padded,
// into a microM×kb strip. σ ∈ {+1, −1} only picks the sign the kernel applies
// and op ∈ {identity, transpose} only picks which pack routine reads b; the
// micro-kernel, the buffer pool and the strip loop are shared. The kernel
// applies a full micro-tile to C itself, and where the host has the AVX-512
// pair kernel (microKernel2) two adjacent full tiles at once; the strip
// loop's scratch tile exists only for the tiles an edge of C or the diagonal
// of a lower-triangular C clips. The row pack (the A tail, and B of every
// A·Bᵀ product, which is every product Cholesky does) moves four rows at a
// time through packFour, a 4×4 register transpose where AVX2 is available;
// the column pack (B of every A·B product, which is every product the LU
// kernels and the cluster worker's DGEMM do) deals four rows of B at a time
// to the strips through dealCols, YMM loads and stores where AVX2 is
// available.
// Pack buffers are recycled through a sync.Pool so tiled task-runtime
// workloads (many calls on tile views) allocate only on first use. The
// parallel variant splits the row-panels of C across worker goroutines; every
// worker has its own tail strip while sharing the read-only packed B panel,
// and workers claim strips from an atomic counter so uneven strips cannot
// imbalance the pool.

// packDepth is the driver's one panel depth kc (and row-panel height): a
// 128-tile's whole k extent, so a tile task reads and writes C once and packs
// B once, and a 128×8 B strip plus the 6×128 A rows it meets (14 kB) still
// sit in L1 under the micro-kernel. Callers do not choose it: the block
// argument of the exported GEMM entry points is the scalar kernels' blocking
// factor, sized for their L2 footprint, and the packed path does not read it.
const packDepth = 128

// packPanelCols bounds the width of one packed B panel: kc×packPanelCols
// doubles must stay cache-resident, and a bound keeps the pack buffers small
// for very wide matrices.
const packPanelCols = 2048

// packScratch is one pooled pack buffer together with the scratch micro-tile
// of the strip loop that owns it, where the k-sum of a clipped tile lands.
// microKernel is called through a variable, so a tile declared on the stack
// would move to the heap on every strip; here it is recycled with the buffer.
type packScratch struct {
	buf []float64
	out microAccum
}

// packPool recycles pack buffers across calls (and across the goroutines of
// the parallel path).
var packPool = sync.Pool{New: func() any { return new(packScratch) }}

// packBuf returns a pooled scratch whose buffer has length n.
func packBuf(n int) *packScratch {
	p := packPool.Get().(*packScratch)
	if cap(p.buf) < n {
		p.buf = make([]float64, n)
	}
	p.buf = p.buf[:n]
	return p
}

// roundUp returns v rounded up to a multiple of q.
func roundUp(v, q int) int { return (v + q - 1) / q * q }

// product selects what the one packed driver computes, C += σ·A·op(B). The
// zero value is the plain DGEMM update C += A·B.
type product struct {
	neg    bool // σ = −1: the product is subtracted
	transB bool // op(B) = Bᵀ: b is n×k and element (p, j) of op(B) is b[j][p]
	lower  bool // C is square and only its lower triangle, diagonal included, is written
}

// packRows copies the rows×kb block of m at (r0, p0) into dst as zero-padded
// strips of w rows, k-major: strip s holds rows r0+s*w.. and its element
// (p, r) lands at dst[s*kb*w + p*w + r]. With w = microM it packs A's tail
// strip; with w = microN it packs Bᵀ, whose "columns" are rows of b.
func packRows(m *Matrix, r0, p0, rows, kb, w int, dst []float64) {
	for i := 0; i < rows; i += w {
		strip := dst[i*kb : (i+w)*kb]
		h := min(w, rows-i)
		r := 0
		for ; kb > 0 && r+4 <= h; r += 4 { // four rows per pass: a full strip of microN rows needs no other loop
			packFour(kb, m.Data[(r0+i+r)*m.Stride+p0:], m.Stride, strip[r:], w)
		}
		for ; r < h; r++ {
			for p, v := range m.Data[(r0+i+r)*m.Stride+p0:][:kb] {
				strip[p*w+r] = v
			}
		}
		if h < w {
			for p := 0; p < kb; p++ {
				clear(strip[p*w+h : (p+1)*w])
			}
		}
	}
}

// packFour writes four rows of kb ≥ 1 values — src[r*ld:][:kb] for r < 4 — as
// four adjacent columns of a k-major strip w wide: dst[p*w+r] = src[r*ld+p].
// It points at the portable body below or, installed by the same init as the
// micro-kernel, at the AVX2 transpose, which uses this body for its tail.
var packFour = packFourGo

func packFourGo(kb int, src []float64, ld int, dst []float64, w int) {
	s0, s1, s2, s3 := src[:kb], src[ld:][:kb], src[2*ld:][:kb], src[3*ld:][:kb]
	for p, v := range s0 {
		d := dst[p*w:][:4]
		d[0], d[1], d[2], d[3] = v, s1[p], s2[p], s3[p]
	}
}

// packCols copies the kb×nb block of b at (p0, j0) into pb as zero-padded
// strips of microN columns, k-major: strip s holds columns j0+s*microN.. and
// its element (p, q) lands at pb[s*kb*microN + p*microN + q]. It walks b along
// its rows, each read once front to back and dealt out to the strips microN
// values at a time: a B tile that arrives cold (the cluster worker's) streams
// in row by row instead of being walked down a column per strip. The full
// strips go through dealCols; the short last strip is copied and padded here.
func packCols(b *Matrix, p0, j0, kb, nb int, pb []float64) {
	full := nb &^ (microN - 1)
	src := b.Data[p0*b.Stride+j0:]
	if full > 0 {
		dealCols(kb, full, src, b.Stride, pb)
	}
	if full < nb {
		for p := 0; p < kb; p++ {
			dst := pb[full*kb+p*microN:][:microN]
			clear(dst[copy(dst, src[p*b.Stride+full:][:nb-full]):])
		}
	}
}

// dealCols copies kb rows of full values — src[p*ld:][:full] for p < kb, full
// a positive multiple of microN — into the first full/microN strips of pb:
// pb[j*kb+p*microN+q] = src[p*ld+j+q] for j a multiple of microN and q <
// microN. It points at the portable body below or, installed by the same init
// as the micro-kernel, at the AVX2 deal, which moves four rows per pass so
// that each strip receives 256 contiguous bytes (the kb mod 4 tail a row per
// pass).
var dealCols = dealColsGo

func dealColsGo(kb, full int, src []float64, ld int, pb []float64) {
	for p := 0; p < kb; p++ {
		row := src[p*ld:][:full]
		for j := 0; j < full; j += microN {
			*(*[microN]float64)(pb[j*kb+p*microN:]) = [microN]float64(row[j:])
		}
	}
}

// packedStrip multiplies one row panel of A against the shared packed op(B)
// panel and applies it to C — the one strip loop of every packed product, and
// the one call site of each micro-kernel. Row strips go outside and column
// strips inside, so C is walked along its rows. A full strip of microM rows is
// handed to the kernel where it lies in A; only the mb mod microM tail is
// packed, zero-padded, into ps.buf. pb is the caller's packed panel for
// (p0, j0). A micro-tile that lies wholly inside C (and, for a
// lower-triangular C, wholly on or below the diagonal) is handed to the
// kernel as the address of C — two such tiles side by side to the pair
// kernel, where there is one; any other is computed by the 6×8 kernel onto
// ps.out, zeroed, and its valid part added to C here. Every way C gains the
// one k-sum, added once.
func packedStrip(a, c *Matrix, ps *packScratch, pb []float64, i0, p0, j0, mb, kb, nb int, op product) {
	out := &ps.out
	for i := 0; i < mb; i += microM {
		ih := min(microM, mb-i)
		sa, ars, aks := a.Data[(i0+i)*a.Stride+p0:], a.Stride, 1
		if ih < microM {
			sa, ars, aks = ps.buf, 1, microM
			packRows(a, i0+i, p0, ih, kb, microM, sa)
		}
		for j := 0; j < nb; j += microN {
			// diag is how many columns of this micro-tile's first row lie on
			// or below C's diagonal; each later row has one more.
			diag := i0 + i - j0 - j + 1
			if op.lower && diag+ih-1 <= 0 {
				break // this micro-tile and every one to its right is strictly upper
			}
			if microKernel2 != nil && ih == microM && j+2*microN <= nb && (!op.lower || diag >= 2*microN) {
				microKernel2(kb, sa, ars, aks, pb[j*kb:], c.Data[(i0+i)*c.Stride+j0+j:], c.Stride, op.neg)
				j += microN // the pair applied the next strip too
				continue
			}
			jw := min(microN, nb-j)
			if ih == microM && jw == microN && (!op.lower || diag >= microN) {
				microKernel(kb, sa, ars, aks, pb[j*kb:], c.Data[(i0+i)*c.Stride+j0+j:], c.Stride, op.neg)
				continue
			}
			*out = microAccum{}
			microKernel(kb, sa, ars, aks, pb[j*kb:], out[:], microN, false)
			for r := 0; r < ih; r++ {
				w := jw
				if op.lower {
					w = min(jw, diag+r)
				}
				if w <= 0 {
					continue
				}
				applyRow(c.Data[(i0+i+r)*c.Stride+j0+j:][:w], out[r*microN:], op.neg)
			}
		}
	}
}

// GemmPacked computes C += A·B through the packed micro-kernel path,
// single-threaded. block is the scalar kernels' blocking factor
// (GemmBlocked); the packed path has its own panel depth, packDepth, and does
// not read it — the parameter stays so that callers can switch kernels
// without switching signatures. On strided tile views (Sub) packing recovers
// the locality a plain blocked loop loses; the register tile then turns the
// recovered bandwidth into flops.
func GemmPacked(a, b, c *Matrix, block int) error {
	return GemmPackedParallel(a, b, c, block, 1)
}

// GemmPackedParallel computes C += A·B on the packed micro-kernel path with
// the row-panels of C split across workers goroutines (clamped by
// clampWorkers). The panel decomposition — and therefore the floating-point
// result — is identical for every worker count. block is not read (see
// GemmPacked).
func GemmPackedParallel(a, b, c *Matrix, block, workers int) error {
	if _, _, _, err := shapeGEMM(a, b, c); err != nil {
		return err
	}
	packedProduct(a, b, c, product{}, workers)
	return nil
}

// packedProduct is the packed driver: C += σ·A·op(B) for conformable
// operands (callers check shapes), a no-op when any extent is zero. The
// micro-kernel, the tail pack of A, the buffer pool and the strip loop are
// the same for every product; op picks the B pack and the sign and triangle
// of the write-back.
func packedProduct(a, b, c *Matrix, op product, workers int) {
	m, n, k := c.Rows, c.Cols, a.Cols
	if m == 0 || n == 0 || k == 0 {
		return
	}
	kc := min(packDepth, k)
	mc := roundUp(kc, microM)
	nc := min(packPanelCols, n)
	strips := (m + mc - 1) / mc
	workers = clampWorkers(workers, strips)

	ps := packBuf(roundUp(nc, microN) * kc)
	defer packPool.Put(ps)
	pb := ps.buf
	for p0 := 0; p0 < k; p0 += kc {
		kb := min(kc, k-p0)
		for j0 := 0; j0 < n; j0 += nc {
			nb := min(nc, n-j0)
			if op.transB {
				packRows(b, j0, p0, nb, kb, microN, pb)
			} else {
				packCols(b, p0, j0, kb, nb, pb)
			}
			if workers == 1 {
				pa := packBuf(microM * kb)
				for i0 := 0; i0 < m; i0 += mc {
					packedStrip(a, c, pa, pb, i0, p0, j0, min(mc, m-i0), kb, nb, op)
				}
				packPool.Put(pa)
				continue
			}
			packedStripsParallel(*a, *c, pb, p0, j0, kb, nb, mc, op, workers)
		}
	}
}

// packedStripsParallel runs one panel's strips on workers goroutines, which
// claim strips from an atomic counter so uneven strips cannot imbalance
// them. Every worker has its own tail-strip buffer and shares the read-only
// pb. The operands arrive by value so that only this path moves them to the
// heap.
func packedStripsParallel(a, c Matrix, pb []float64, p0, j0, kb, nb, mc int, op product, workers int) {
	strips := (c.Rows + mc - 1) / mc
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pa := packBuf(microM * kb)
			defer packPool.Put(pa)
			for {
				s := int(next.Add(1)) - 1
				if s >= strips {
					return
				}
				i0 := s * mc
				packedStrip(&a, &c, pa, pb, i0, p0, j0, min(mc, c.Rows-i0), kb, nb, op)
			}
		}()
	}
	wg.Wait()
}
