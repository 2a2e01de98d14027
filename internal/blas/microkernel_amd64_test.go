//go:build amd64 && !purego && !race

package blas

import (
	"math"
	"math/rand"
	"testing"
)

// TestMicroKernelsAgree runs the portable and the assembly micro-kernel on
// the same strips: every element of the 6×8 tile within kb+1 ulps of the
// magnitude it was summed at (the assembly fuses each multiply-add, the Go
// body rounds twice), every element of c outside the tile untouched, and —
// when an operand holds Inf or NaN, 0·Inf included — the same elements NaN.
// Potrf reports an indefinite matrix because a NaN pivot arrives; a kernel
// that dropped a 0·NaN term would hide it on one of the two builds. Each
// kernel also runs on the A strip in both layouts the driver passes — packed
// k-major, and in place as rows at a random stride ≥ kb with other values in
// the gaps, the slice ending at the strip's last element — and gives the
// same bits for both.
func TestMicroKernelsAgree(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2/FMA on this host")
	}
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = 2*rng.Float64() - 1
		}
		return s
	}
	for _, kb := range []int{0, 1, 3, 16, 128} {
		for _, ldc := range []int{microN, microN + 5} {
			for _, neg := range []bool{false, true} {
				for _, special := range []float64{0, math.Inf(1), math.NaN()} {
					pa, pb := fill(kb*microM), fill(kb*microN)
					if special != 0 && kb > 0 {
						p := rng.Intn(kb)
						pa[p*microM+1] = 0 // 0·special in row 1, column 2
						pb[p*microN+2] = special
						pa[rng.Intn(kb)*microM+5] = special // special·finite across row 5
					}
					lda := kb + rng.Intn(5)
					rows := fill((microM-1)*lda + kb)
					for p := 0; p < kb; p++ {
						for i := 0; i < microM; i++ {
							rows[i*lda+p] = pa[p*microM+i]
						}
					}
					c0 := fill((microM-1)*ldc + microN + 3)
					run := func(kernel microKernelFunc, a []float64, ars, aks int) []float64 {
						c := append([]float64(nil), c0...)
						kernel(kb, a, ars, aks, pb, c, ldc, neg)
						return c
					}
					cGo, cAsm := run(microKernelGo, pa, 1, microM), run(microKernelAVX2, pa, 1, microM)
					for _, k := range []struct {
						name   string
						kernel microKernelFunc
						want   []float64
					}{{"go", microKernelGo, cGo}, {"asm", microKernelAVX2, cAsm}} {
						got := run(k.kernel, rows, lda, 1)
						for at := range got {
							if math.Float64bits(got[at]) != math.Float64bits(k.want[at]) {
								t.Fatalf("kb=%d lda=%d ldc=%d neg=%v special=%g: %s c[%d] is %g with A in place, %g packed",
									kb, lda, ldc, neg, special, k.name, at, got[at], k.want[at])
							}
						}
					}
					for at := range c0 {
						i, j := at/ldc, at%ldc
						g, a := cGo[at], cAsm[at]
						if i >= microM || j >= microN {
							if g != c0[at] || a != c0[at] {
								t.Fatalf("kb=%d ldc=%d neg=%v: c[%d] outside the tile changed: go %g asm %g was %g", kb, ldc, neg, at, g, a, c0[at])
							}
							continue
						}
						if math.IsNaN(g) != math.IsNaN(a) {
							t.Fatalf("kb=%d ldc=%d neg=%v special=%g: (%d,%d) go %g asm %g", kb, ldc, neg, special, i, j, g, a)
						}
						if math.IsNaN(g) || math.IsInf(g, 0) && g == a {
							continue
						}
						mag := math.Abs(c0[at])
						for p := 0; p < kb; p++ {
							mag += math.Abs(pa[p*microM+i] * pb[p*microN+j])
						}
						if tol := float64(kb+1) * mag * 0x1p-52; !(math.Abs(g-a) <= tol) {
							t.Fatalf("kb=%d ldc=%d neg=%v special=%g: (%d,%d) go %g asm %g differ by %g > %g", kb, ldc, neg, special, i, j, g, a, math.Abs(g-a), tol)
						}
					}
				}
			}
		}
	}
}

// TestSolveStripMatchesPortable: the AVX2 base solve multiplies and then
// subtracts, as the portable body does, so for every triangle order the two
// give the same bits — which is what keeps a solve's result independent of
// how many of its rows went eight at a time.
func TestSolveStripMatchesPortable(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2/FMA on this host")
	}
	for n := 0; n <= factorBase; n++ {
		tri := factoredDD(factorBase, int64(n)).Data // U in the upper triangle, row-major at stride factorBase
		x := randomMatrix(factorBase, stripRows, int64(n)+1).Data
		got, want := append([]float64(nil), x...), append([]float64(nil), x...)
		solveStripAVX2(n, got, tri)
		solveStripGo(n, want, tri)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: x[%d] = %g, portable body has %g", n, i, got[i], want[i])
			}
		}
	}
}
