//go:build amd64 && !purego && !race

package blas

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestMicroKernelsAgree runs the portable and the assembly micro-kernels on
// the same strips — the 6×8 AVX2 kernel against microKernelGo, and the 6×16
// AVX-512 pair against two microKernelGo calls, one per strip: every element
// of the tile within kb+1 ulps of the magnitude it was summed at (the
// assembly fuses each multiply-add, the Go body rounds twice), every element
// of c outside the tile untouched, and — when an operand holds Inf or NaN,
// 0·Inf included — the same elements NaN. Potrf reports an indefinite matrix
// because a NaN pivot arrives; a kernel that dropped a 0·NaN term would hide
// it on one of the two builds. Each kernel also runs on the A strip in both
// layouts the driver passes — packed k-major, and in place as rows at a
// random stride ≥ kb with other values in the gaps, the slice ending at the
// strip's last element — and gives the same bits for both. The pair must also
// give, bit for bit, what two calls of the AVX2 kernel give.
func TestMicroKernelsAgree(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2/FMA on this host")
	}
	for _, k := range []struct {
		name       string
		width      int
		ref, asm   microKernelFunc
		sameBitsAs microKernelFunc // nil: no second assembly form to match
	}{
		{"6x8", microN, microKernelGo, microKernelAVX2, nil},
		{"6x16", 2 * microN, pairOf(microKernelGo), microKernelPairAVX512, pairOf(microKernelAVX2)},
	} {
		t.Run(k.name, func(t *testing.T) {
			if k.width > microN && !cpuHasAVX512() {
				t.Skip("no AVX-512 on this host: the pair kernel is not installed")
			}
			kernelsAgree(t, k.width, k.ref, k.asm, k.sameBitsAs)
		})
	}
}

// kernelsAgree is TestMicroKernelsAgree for one tile width: ref the portable
// kernel, asm the assembly, same an assembly form asm must match bit for bit.
func kernelsAgree(t *testing.T, width int, ref, asm, same microKernelFunc) {
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = 2*rng.Float64() - 1
		}
		return s
	}
	for _, kb := range []int{0, 1, 3, 16, 128} {
		// bAt is element (p, j) of the tile's B: strip j/microN of pb.
		bAt := func(p, j int) int { return j/microN*kb*microN + p*microN + j%microN }
		for _, ldc := range []int{width, width + 5} {
			for _, neg := range []bool{false, true} {
				for _, special := range []float64{0, math.Inf(1), math.NaN()} {
					pa, pb := fill(kb*microM), fill(kb*width)
					if special != 0 && kb > 0 {
						p := rng.Intn(kb)
						pa[p*microM+1] = 0 // 0·special in row 1, column width−6
						pb[bAt(p, width-6)] = special
						pa[rng.Intn(kb)*microM+5] = special // special·finite across row 5
					}
					lda := kb + rng.Intn(5)
					rows := fill((microM-1)*lda + kb)
					for p := 0; p < kb; p++ {
						for i := 0; i < microM; i++ {
							rows[i*lda+p] = pa[p*microM+i]
						}
					}
					c0 := fill((microM-1)*ldc + width + 3)
					run := func(kernel microKernelFunc, a []float64, ars, aks int) []float64 {
						c := append([]float64(nil), c0...)
						kernel(kb, a, ars, aks, pb, c, ldc, neg)
						return c
					}
					cGo, cAsm := run(ref, pa, 1, microM), run(asm, pa, 1, microM)
					type layout struct {
						name   string
						kernel microKernelFunc
						want   []float64
					}
					layouts := []layout{{"go", ref, cGo}, {"asm", asm, cAsm}}
					if same != nil {
						layouts = append(layouts, layout{"asm per strip", same, cAsm})
					}
					for _, k := range layouts {
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
						if i >= microM || j >= width {
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
							mag += math.Abs(pa[p*microM+i] * pb[bAt(p, j)])
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

// TestKernelISAStaysAVX2: with the AVX2 kernel installed KernelISA says
// "avx2", with or without the pair kernel beside it, and the pair kernel is
// installed exactly where the CPU has AVX-512. The benchmark picks its FMA
// probe and the host reference that scales every workload's latency by this
// string; KernelVectorBits is where the width shows.
func TestKernelISAStaysAVX2(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2/FMA on this host")
	}
	if reflect.ValueOf(microKernel).Pointer() != reflect.ValueOf(microKernelAVX2).Pointer() {
		t.Fatal("the AVX2 kernel is not installed on an AVX2/FMA host")
	}
	if got, want := microKernel2 != nil, cpuHasAVX512(); got != want {
		t.Fatalf("pair kernel installed: %v, CPU has AVX-512: %v", got, want)
	}
	_, pair := keepKernels(t)
	for _, p := range []microKernelFunc{pair, nil, microKernelPairAVX512} {
		microKernel2 = p
		if got := KernelISA(); got != "avx2" {
			t.Fatalf("KernelISA() = %q with the pair kernel installed: %v, want \"avx2\"", got, p != nil)
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
