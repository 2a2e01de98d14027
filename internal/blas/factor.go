// Dense factorization kernels for the tiled Cholesky and LU experiments:
// the four Cholesky tile operations (POTRF, the right-lower-transposed TRSM
// panel solve, the SYRK trailing update and its GEMM generalisation) and the
// LU-without-pivoting set (GETRF, the two unit/non-unit TRSM variants and
// the subtracting GEMM). All kernels operate in place on stride-aware views,
// so a tile task mutates its slice of the parent matrix directly — the same
// zero-copy convention the DGEMM harness uses.
//
// Every kernel does its bulk flops in the packed driver of pack.go. The
// three updates are one call each: GemmSub is C −= A·B, GemmNT is C −= A·Bᵀ
// and SyrkNT is GemmNT with B = A restricted to C's lower triangle. The
// solves and factorizations are recursive: split the triangle in two at a
// multiple of microN, finish the first half, apply it to the second half with
// one of those updates, finish the second half. At factorBase or below the
// recursion ends in the unblocked loop. The invariants the recursion keeps:
//
//   - a triangular operand is read only inside its named triangle (an LU tile
//     holds L and U in one array; a Cholesky tile's strictly-upper part is
//     never written), because the halves are diagonal blocks of the same
//     triangle and the off-diagonal block on the named side;
//   - pivot and diagonal errors carry the index in the caller's matrix, not
//     in the block where they were found;
//   - a kernel is single-threaded, allocates nothing once the pack pool is
//     warm (views are values, see Matrix.view), and is bit-deterministic for
//     a given shape: the split points depend on the extents only.

package blas

import (
	"fmt"
	"math"
)

// factorBase is the triangle order at or below which the recursive kernels
// run their unblocked loop. Below it the packed driver's per-call packing
// costs more than the scalar loop it would replace.
const factorBase = 16

// update applies C −= A·op(B), the one way a finished half reaches the other
// half (and all of GemmSub, GemmNT and SyrkNT): the packed driver,
// single-threaded inside a task.
func update(a, b, c *Matrix, op product) {
	op.neg = true
	packedProduct(a, b, c, op, 1)
}

// splitAt returns where a triangle of order n > factorBase is halved: near
// the middle, on a multiple of microN so that a first half read as op(B)
// packs into full column strips. On the 8-row tile both halves of 128 and of
// every half of it are whole row strips, so A is read in place throughout; the
// split stays where it is because moving it would move the bits of every
// factor kernel.
func splitAt(n int) int { return roundUp(n/2, microN) }

// Potrf computes the lower-triangular Cholesky factor of a symmetric
// positive-definite matrix in place: on return the lower triangle of a
// (diagonal included) holds L with A = L·Lᵀ. Only the lower triangle is
// read or written; the strictly-upper part is left untouched. Returns an
// error when a is not square or a pivot is not strictly positive (the
// matrix is not positive definite to working precision).
func Potrf(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("blas: Potrf needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	return potrf(a, 0)
}

// potrf factors a, whose first pivot is pivot off of the caller's matrix.
func potrf(a *Matrix, off int) error {
	n := a.Rows
	if n <= factorBase {
		return potrfBase(a, off)
	}
	n1 := splitAt(n)
	a11, a21, a22 := a.view(0, 0, n1, n1), a.view(n1, 0, n-n1, n1), a.view(n1, n1, n-n1, n-n1)
	if err := potrf(&a11, off); err != nil {
		return err
	}
	trsmRight(&a11, &a21, true)
	update(&a21, &a21, &a22, product{transB: true, lower: true})
	return potrf(&a22, off+n1)
}

func potrfBase(a *Matrix, off int) error {
	n := a.Rows
	for j := 0; j < n; j++ {
		rowj := a.Data[j*a.Stride : j*a.Stride+j+1]
		d := rowj[j]
		for k := 0; k < j; k++ {
			d -= rowj[k] * rowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("blas: Potrf pivot %d is %g: matrix not positive definite", off+j, d)
		}
		d = math.Sqrt(d)
		rowj[j] = d
		for i := j + 1; i < n; i++ {
			rowi := a.Data[i*a.Stride : i*a.Stride+j+1]
			s := rowi[j]
			for k := 0; k < j; k++ {
				s -= rowi[k] * rowj[k]
			}
			rowi[j] = s / d
		}
	}
	return nil
}

// zeroDiagonal returns the first index whose diagonal element of t is zero,
// or −1.
func zeroDiagonal(t *Matrix) int {
	for j := 0; j < t.Rows; j++ {
		if t.Data[j*t.Stride+j] == 0 {
			return j
		}
	}
	return -1
}

// TrsmRLT solves X·Lᵀ = B in place (B := B·L⁻ᵀ) where l is the lower
// non-unit triangular factor produced by Potrf. This is the Cholesky panel
// solve: A[i][k] := A[i][k]·L[k][k]⁻ᵀ.
func TrsmRLT(l, b *Matrix) error {
	if l.Rows != l.Cols || l.Rows != b.Cols {
		return fmt.Errorf("blas: TrsmRLT shape mismatch: L %dx%d, B %dx%d", l.Rows, l.Cols, b.Rows, b.Cols)
	}
	if j := zeroDiagonal(l); j >= 0 {
		return fmt.Errorf("blas: TrsmRLT zero diagonal at %d", j)
	}
	trsmRight(l, b, true)
	return nil
}

// trsmRight solves X·T = B in place on checked operands, where the upper
// triangle T is u itself (trans false, TrsmRU) or lᵀ (trans true, TrsmRLT: t
// holds the lower factor and T[k][j] is read from t[j][k]). Either way
// X₁ = B₁·T₁₁⁻¹, B₂ −= X₁·T₁₂, X₂ = B₂·T₂₂⁻¹.
func trsmRight(t, b *Matrix, trans bool) {
	n, m := t.Rows, b.Rows
	if n <= factorBase {
		trsmRightBase(t, b, trans)
		return
	}
	n1 := splitAt(n)
	t11, t22 := t.view(0, 0, n1, n1), t.view(n1, n1, n-n1, n-n1)
	t12 := t.view(0, n1, n1, n-n1)
	if trans {
		t12 = t.view(n1, 0, n-n1, n1) // L₂₁, which the driver reads transposed
	}
	b1, b2 := b.view(0, 0, m, n1), b.view(0, n1, m, n-n1)
	trsmRight(&t11, &b1, trans)
	update(&b1, &t12, &b2, product{transB: trans})
	trsmRight(&t22, &b2, trans)
}

// trsmRightBase is the unblocked right solve: for every row of b,
// row[j] = (row[j] − Σ_{k<j} row[k]·T[k][j]) / T[j][j], the terms subtracted
// in order of k. Where the assembly is in, solveStrips takes the leading rows
// a strip at a time against a copy of the triangle that is T whichever way t
// stores it; the rows it leaves, and all of them on the portable build, go
// through solveRows in place.
func trsmRightBase(t, b *Matrix, trans bool) {
	n, m := t.Rows, b.Rows
	i := 0
	if solveStrips != nil && n > 0 && m >= stripRows {
		ps := packBuf(factorBase * (factorBase + stripRows))
		tri, x := ps.buf[:factorBase*factorBase], ps.buf[factorBase*factorBase:]
		copyTriangle(tri, t, trans)
		i = solveStrips(n, m, b.Data, b.Stride, tri, x)
		packPool.Put(ps)
	}
	rest := b.view(i, 0, m-i, n)
	solveRows(t, &rest, trans)
}

// copyTriangle writes T into the upper triangle of tri at stride factorBase:
// tri[k*factorBase+j] = T[k][j] for k ≤ j < n, and past n the identity, so
// that a solve that runs on whole groups of eight columns finds a unit
// diagonal and no coupling in the columns it computes and then drops.
func copyTriangle(tri []float64, t *Matrix, trans bool) {
	n := t.Rows
	sk, sj := t.Stride, 1 // T[k][j] = t.Data[k*sk+j*sj]
	if trans {
		sk, sj = 1, t.Stride
	}
	for k := 0; k < factorBase; k++ {
		row, j := tri[k*factorBase:(k+1)*factorBase], k
		for at := k*sk + j*sj; j < n; j, at = j+1, at+sj {
			row[j] = t.Data[at]
		}
		clear(row[j:])
		if k >= n {
			row[k] = 1
		}
	}
}

// solveRows is the right solve in place, one dependent chain per row: the
// portable body, and the oracle the strip bodies give the bits of.
func solveRows(t, b *Matrix, trans bool) {
	n := t.Rows
	sk, sj := t.Stride, 1
	if trans {
		sk, sj = 1, t.Stride
	}
	for i := 0; i < b.Rows; i++ {
		row := b.Data[i*b.Stride:][:n]
		for j := 0; j < n; j++ {
			s := row[j]
			at := j * sj
			for k := 0; k < j; k++ {
				s -= row[k] * t.Data[at]
				at += sk
			}
			row[j] = s / t.Data[at]
		}
	}
}

// stripRows is the row count of a strip: eight doubles of a column, one ZMM
// or two YMM registers.
const stripRows = 8

// solveStrips solves X·T = B for the leading rows of b (m ≥ stripRows rows
// of n ≤ factorBase columns at stride ld), a whole number of strips, and
// returns how many rows it solved. tri is the triangle copyTriangle writes
// and x an L1 scratch of factorBase·stripRows doubles. Column j is finished
// (divided by the diagonal) and then taken out of every later column, so each
// element loses its terms in the same order, rounded the same way, as in
// solveRows: which rows went through here does not show in the bits. The
// assembly multiplies and then subtracts — no FMA — for that reason. Nil on
// the portable build; the CPUID init installs eight-row strips through YMM
// registers (solveStripsAVX2) or, where the CPU has AVX-512, sixteen rows at
// a time through ZMM registers (solveStripsAVX512).
var solveStrips func(n, m int, b []float64, ld int, tri, x []float64) int

// SyrkNT applies the symmetric rank-k trailing update C := C − A·Aᵀ to the
// lower triangle of c (diagonal included). The strictly-upper triangle of c
// is left untouched, matching what Potrf will later read.
func SyrkNT(a, c *Matrix) error {
	if c.Rows != c.Cols || c.Rows != a.Rows {
		return fmt.Errorf("blas: SyrkNT shape mismatch: A %dx%d, C %dx%d", a.Rows, a.Cols, c.Rows, c.Cols)
	}
	update(a, a, c, product{transB: true, lower: true})
	return nil
}

// GemmNT applies C := C − A·Bᵀ, the general trailing update of the tiled
// Cholesky (A is the freshly-solved panel tile, B the panel tile of the
// destination's block column).
func GemmNT(a, b, c *Matrix) error {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		return fmt.Errorf("blas: GemmNT shape mismatch: A %dx%d, B %dx%d, C %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	update(a, b, c, product{transB: true})
	return nil
}

// Getrf computes the LU factorization of a square matrix in place without
// pivoting (Doolittle): on return the strictly-lower triangle holds the
// unit-lower factor L (implicit unit diagonal) and the upper triangle holds
// U with A = L·U. Callers must supply a matrix for which pivot-free
// elimination is stable (the harness uses diagonally dominant inputs).
func Getrf(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("blas: Getrf needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	return getrf(a, 0)
}

// getrf factors a, whose first pivot is pivot off of the caller's matrix:
// A₁₁ = L₁₁·U₁₁, U₁₂ = L₁₁⁻¹·A₁₂, L₂₁ = A₂₁·U₁₁⁻¹, A₂₂ −= L₂₁·U₁₂, A₂₂ = L₂₂·U₂₂.
func getrf(a *Matrix, off int) error {
	n := a.Rows
	if n <= factorBase {
		return getrfBase(a, off)
	}
	n1 := splitAt(n)
	a11, a12 := a.view(0, 0, n1, n1), a.view(0, n1, n1, n-n1)
	a21, a22 := a.view(n1, 0, n-n1, n1), a.view(n1, n1, n-n1, n-n1)
	if err := getrf(&a11, off); err != nil {
		return err
	}
	trsmLLUnit(&a11, &a12)
	trsmRight(&a11, &a21, false)
	update(&a21, &a12, &a22, product{})
	return getrf(&a22, off+n1)
}

// getrfBase is the unblocked right-looking LU. Its row update stays a scalar
// loop, not an eliminate call: its rows are at most factorBase wide, and the
// call cost more than the vector body saved (BenchmarkTileKernels/Getrf).
func getrfBase(a *Matrix, off int) error {
	n := a.Rows
	for k := 0; k < n; k++ {
		rowk := a.Data[k*a.Stride : k*a.Stride+n]
		p := rowk[k]
		if p == 0 || math.IsNaN(p) {
			return fmt.Errorf("blas: Getrf zero pivot at %d (matrix needs pivoting)", off+k)
		}
		for i := k + 1; i < n; i++ {
			rowi := a.Data[i*a.Stride : i*a.Stride+n]
			lik := rowi[k] / p
			rowi[k] = lik
			for j := k + 1; j < n; j++ {
				rowi[j] -= lik * rowk[j]
			}
		}
	}
	return nil
}

// TrsmLLUnit solves L·X = B in place (B := L⁻¹·B) where l holds a
// unit-lower triangular factor (implicit unit diagonal, as produced by
// Getrf). This is the LU row-panel solve: A[k][j] := L[k][k]⁻¹·A[k][j].
func TrsmLLUnit(l, b *Matrix) error {
	if l.Rows != l.Cols || l.Rows != b.Rows {
		return fmt.Errorf("blas: TrsmLLUnit shape mismatch: L %dx%d, B %dx%d", l.Rows, l.Cols, b.Rows, b.Cols)
	}
	trsmLLUnit(l, b)
	return nil
}

// trsmLLUnit is TrsmLLUnit on checked operands: X₁ = L₁₁⁻¹·B₁,
// B₂ −= L₂₁·X₁, X₂ = L₂₂⁻¹·B₂.
func trsmLLUnit(l, b *Matrix) {
	n, m := l.Rows, b.Cols
	if n <= factorBase {
		trsmLLUnitBase(l, b)
		return
	}
	n1 := splitAt(n)
	l11, l21, l22 := l.view(0, 0, n1, n1), l.view(n1, 0, n-n1, n1), l.view(n1, n1, n-n1, n-n1)
	b1, b2 := b.view(0, 0, n1, m), b.view(n1, 0, n-n1, m)
	trsmLLUnit(&l11, &b1)
	update(&l21, &b1, &b2, product{})
	trsmLLUnit(&l22, &b2)
}

// trsmLLUnitBase is the unblocked left solve: row i of b loses l[i][k] times
// row k for every k < i, in order of k — one eliminate call per row.
func trsmLLUnitBase(l, b *Matrix) {
	n, m := l.Rows, b.Cols
	for i := 1; i < n; i++ {
		eliminate(b.Data[i*b.Stride:][:m], b.Data, b.Stride, l.Data[i*l.Stride:][:i])
	}
}

// eliminate takes coef[k] times row k of src out of dst, in order of k:
// dst[j] −= coef[k]·src[k*ld+j] for every j < len(dst), each product rounded
// before it is subtracted. It points at the portable body below, which
// applies four k per pass over dst so the row is loaded and stored once for
// the four, or at the AVX2 one (multiply, then subtract — no FMA), installed
// with the micro-kernel, which keeps thirty-two columns of dst in registers
// across every k. Either way each element loses the same terms in the same
// order, so the two give the same bits. The coefficients arrive as a slice of
// the caller's matrix: one gathered into a local array would move to the heap
// on every call through the variable.
var eliminate = eliminateGo

func eliminateGo(dst, src []float64, ld int, coef []float64) {
	m, k := len(dst), 0
	for ; k+4 <= len(coef); k += 4 {
		l0, l1, l2, l3 := coef[k], coef[k+1], coef[k+2], coef[k+3]
		k0 := src[k*ld:][:m]
		k1 := src[(k+1)*ld:][:m]
		k2 := src[(k+2)*ld:][:m]
		k3 := src[(k+3)*ld:][:m]
		for j, v := range dst {
			v -= l0 * k0[j]
			v -= l1 * k1[j]
			v -= l2 * k2[j]
			v -= l3 * k3[j]
			dst[j] = v
		}
	}
	for ; k < len(coef); k++ {
		lk := coef[k]
		for j, v := range src[k*ld:][:m] {
			dst[j] -= lk * v
		}
	}
}

// TrsmRU solves X·U = B in place (B := B·U⁻¹) where u holds a non-unit
// upper triangular factor (as produced by Getrf). This is the LU
// column-panel solve: A[i][k] := A[i][k]·U[k][k]⁻¹.
func TrsmRU(u, b *Matrix) error {
	if u.Rows != u.Cols || u.Rows != b.Cols {
		return fmt.Errorf("blas: TrsmRU shape mismatch: U %dx%d, B %dx%d", u.Rows, u.Cols, b.Rows, b.Cols)
	}
	if j := zeroDiagonal(u); j >= 0 {
		return fmt.Errorf("blas: TrsmRU zero diagonal at %d", j)
	}
	trsmRight(u, b, false)
	return nil
}

// GemmSub applies C := C − A·B, the trailing update of the tiled LU.
func GemmSub(a, b, c *Matrix) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("blas: GemmSub shape mismatch: A %dx%d, B %dx%d, C %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	update(a, b, c, product{})
	return nil
}

// FlopsPOTRF returns the flop count of an n×n Cholesky factorization
// (n³/3 to leading order).
func FlopsPOTRF(n int) float64 { f := float64(n); return f * f * f / 3 }

// FlopsGETRF returns the flop count of an n×n LU factorization
// (2n³/3 to leading order).
func FlopsGETRF(n int) float64 { f := float64(n); return 2 * f * f * f / 3 }

// FlopsTRSM returns the flop count of a triangular solve with an n×n
// triangle against m right-hand sides (m·n²).
func FlopsTRSM(n, m int) float64 { return float64(m) * float64(n) * float64(n) }

// FlopsSYRK returns the flop count of the lower-triangle rank-k update of
// an n×n tile (n²·k to leading order, counting only the written half).
func FlopsSYRK(n, k int) float64 { return float64(n) * float64(n) * float64(k) }
