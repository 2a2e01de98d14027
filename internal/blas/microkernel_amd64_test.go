//go:build amd64 && !purego && !race

package blas

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// asmTiles are the register tiles of this host's assembly, the AVX2 6×8 one
// first and, where the CPU has AVX-512, the 8×16 one.
func asmTiles() []regTile {
	if !cpuHasAVX2FMA() {
		return nil
	}
	tiles := []regTile{{microKernelAVX2, 6, microN}}
	if cpuHasAVX512() {
		tiles = append(tiles, regTile{microKernelAVX512, 8, 2 * microN})
	}
	return tiles
}

// TestMicroKernelsAgree runs the portable and the assembly micro-kernels on
// the same strips — the 6×8 AVX2 kernel against microKernelGo, and the 8×16
// AVX-512 kernel against an 8×16 tile of microKernelGo calls (tileFrom6x8):
// every element of the tile within kb+1 ulps of the magnitude it was summed
// at (the assembly fuses each multiply-add, the Go body rounds twice), every
// element of c outside the tile untouched, and — when an operand holds Inf or
// NaN, 0·Inf included — the same elements NaN. Potrf reports an indefinite
// matrix because a NaN pivot arrives; a kernel that dropped a 0·NaN term
// would hide it on one of the two builds. Each kernel also runs on the A
// strip in both layouts packedStrip passes — packed k-major, and in place as
// rows at a random stride ≥ kb with other values in the gaps, the slice
// ending at the strip's last element — and gives the same bits for both. The
// 8×16 kernel must also give, bit for bit, what the AVX2 kernel gives for
// each of its elements.
func TestMicroKernelsAgree(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2/FMA on this host")
	}
	for _, k := range []struct {
		ref, asm   regTile
		sameBitsAs microKernelFunc // nil: no second assembly form to match
	}{
		{regTile{microKernelGo, 6, microN}, regTile{microKernelAVX2, 6, microN}, nil},
		{tileFrom6x8(microKernelGo, 8, 2*microN), regTile{microKernelAVX512, 8, 2 * microN}, tileFrom6x8(microKernelAVX2, 8, 2*microN).kernel},
	} {
		t.Run(k.asm.shape(), func(t *testing.T) {
			if k.asm.m == 8 && !cpuHasAVX512() {
				t.Skip("no AVX-512 on this host: the 8x16 kernel is not installed")
			}
			kernelsAgree(t, k.asm.m, k.asm.n, k.ref.kernel, k.asm.kernel, k.sameBitsAs)
		})
	}
}

// kernelsAgree is TestMicroKernelsAgree for one rows×width tile: ref the
// portable kernel, asm the assembly, same an assembly form asm must match
// bit for bit.
func kernelsAgree(t *testing.T, rows, width int, ref, asm, same microKernelFunc) {
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
					pa, pb := fill(kb*rows), fill(kb*width)
					if special != 0 && kb > 0 {
						p := rng.Intn(kb)
						pa[p*rows+1] = 0 // 0·special in row 1, column width−6
						pb[bAt(p, width-6)] = special
						pa[rng.Intn(kb)*rows+rows-1] = special // special·finite across the last row
					}
					lda := kb + rng.Intn(5)
					inPlace := fill((rows-1)*lda + kb)
					for p := 0; p < kb; p++ {
						for i := 0; i < rows; i++ {
							inPlace[i*lda+p] = pa[p*rows+i]
						}
					}
					c0 := fill((rows-1)*ldc + width + 3)
					run := func(kernel microKernelFunc, a []float64, ars, aks int) []float64 {
						c := append([]float64(nil), c0...)
						kernel(kb, a, ars, aks, pb, c, ldc, neg)
						return c
					}
					cGo, cAsm := run(ref, pa, 1, rows), run(asm, pa, 1, rows)
					type layout struct {
						name   string
						kernel microKernelFunc
						want   []float64
					}
					layouts := []layout{{"go", ref, cGo}, {"asm", asm, cAsm}}
					if same != nil {
						layouts = append(layouts, layout{"asm 6x8", same, cAsm})
					}
					for _, k := range layouts {
						got := run(k.kernel, inPlace, lda, 1)
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
						if i >= rows || j >= width {
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
							mag += math.Abs(pa[p*rows+i] * pb[bAt(p, j)])
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

// TestKernelISAStaysAVX2: the tile init installs is the 8×16 AVX-512 one
// exactly where the CPU has AVX-512, and the AVX2 6×8 one elsewhere, and
// KernelISA says "avx2" with either: the benchmark picks its FMA probe and
// the host reference that scales every workload's latency by this string.
// KernelVectorBits and KernelTile are where the tile shows.
func TestKernelISAStaysAVX2(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2/FMA on this host")
	}
	asm := asmTiles()
	want := asm[len(asm)-1]
	if reflect.ValueOf(tile.kernel).Pointer() != reflect.ValueOf(want.kernel).Pointer() || tile.m != want.m || tile.n != want.n {
		t.Fatalf("installed tile %s, want the %s assembly tile (CPU has AVX-512: %v)", KernelTile(), want.shape(), cpuHasAVX512())
	}
	keepTile(t)
	for _, rt := range asm {
		tile = rt
		if got := KernelISA(); got != "avx2" {
			t.Fatalf("KernelISA() = %q with the %s tile installed, want \"avx2\"", got, rt.shape())
		}
		if got := KernelTile(); got != rt.shape() {
			t.Fatalf("KernelTile() = %q with the %s tile installed", got, rt.shape())
		}
	}
}

// TestSolveStripMatchesPortable: the eight-row AVX2 strips of hosts without
// AVX-512 give the bits of the in-place row loop (see rightSolveMatches).
func TestSolveStripMatchesPortable(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2/FMA on this host")
	}
	rightSolveMatches(t, solveStripsAVX2)
}

// TestRightSolveMatchesPortable: the AVX-512 pass, sixteen rows at a time
// with an eight-row tail, gives the bits of the in-place row loop (see
// rightSolveMatches).
func TestRightSolveMatchesPortable(t *testing.T) {
	if !cpuHasAVX2FMA() || !cpuHasAVX512() {
		t.Skip("no AVX-512 on this host")
	}
	rightSolveMatches(t, solveStripsAVX512)
}

// rightSolveMatches runs trsmRightBase with strips installed as solveStrips
// against solveRows alone, for every triangle order up to factorBase, every
// row count up to 40 (every tail of a sixteen- and an eight-row pass), T
// stored as itself and transposed, on strided views of a parent whose every
// other cell is NaN — t's unread triangle, three columns right of b and a
// row below both — with NaN in the pack pool: the whole parent must come out
// with the same bits both ways. Both multiply, then subtract, in order of k.
func rightSolveMatches(t *testing.T, strips func(n, m int, b []float64, ld int, tri, x []float64) int) {
	installed := solveStrips
	t.Cleanup(func() { solveStrips = installed })
	solveStrips = strips
	for n := 0; n <= factorBase; n++ {
		for m := 0; m <= 40; m++ {
			for _, trans := range []bool{false, true} {
				shapes := [][2]int{{n, n}, {m, n}, {0, 3}}
				run := func(solve func(tr, b *Matrix)) *Matrix {
					parent := carveParent(shapes, math.NaN())
					tiles := carve(parent, shapes)
					seed := int64(41*n + m)
					if trans {
						fillWhere(tiles[0], factoredSPD(n, seed), lower)
					} else {
						fillWhere(tiles[0], factoredDD(n, seed), upper)
					}
					fillWhere(tiles[1], randomMatrix(m, n, seed+1), all)
					poisonPackPool()
					solve(tiles[0], tiles[1])
					return parent
				}
				got := run(func(tr, b *Matrix) { trsmRightBase(tr, b, trans) })
				want := run(func(tr, b *Matrix) { solveRows(tr, b, trans) })
				if i, j, ok := sameBitsOrWithin(got, want, -1); !ok {
					t.Fatalf("n=%d m=%d trans=%v: parent cell (%d,%d) = %g, the in-place loop gives %g",
						n, m, trans, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

// TestLUKernelsMatchPortable runs the four LU tile kernels twice on the same
// strided views, once with the AVX2 column deal and row update installed and
// once with the portable bodies in their place (the micro-kernel is the
// installed one both times), and requires the same bits in the whole parent,
// guard cells included: the deal only moves values and the row update
// multiplies, then subtracts, in the portable order. Triangle orders from 1
// to 129, at and around factorBase, give every i mod 4 tail of the left
// solve's base case; the right-hand side widths give every tail of the
// update's 32-, 4- and 1-column passes.
func TestLUKernelsMatchPortable(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2/FMA on this host")
	}
	deal, elim := dealCols, eliminate
	t.Cleanup(func() { dealCols, eliminate = deal, elim })
	widths := []int{1, 3, 4, 5, 8, 127, 128, 129}
	orders := append([]int{2, 6, 7, 9, 13, 15, 16, 17, 33, 100}, widths...)
	for _, fc := range factorCases {
		switch fc.name {
		case "Getrf", "TrsmLLUnit", "TrsmRU", "GemmSub":
		default:
			continue
		}
		for _, n := range orders {
			for _, m := range widths {
				if fc.name == "Getrf" && m != widths[0] {
					continue // square: the order is the only extent
				}
				for _, poison := range []float64{math.NaN(), 1e30} {
					shapes := fc.shapes(n, m, (n+m)/2+1)
					run := func(d func(int, int, []float64, int, []float64), e func([]float64, []float64, int, []float64)) *Matrix {
						dealCols, eliminate = d, e
						parent := carveParent(shapes, poison)
						tiles := carve(parent, shapes)
						fc.fill(tiles, int64(31*n+m))
						if err := fc.kernel(tiles); err != nil {
							t.Fatalf("%s n=%d m=%d: %v", fc.name, n, m, err)
						}
						return parent
					}
					got, want := run(deal, elim), run(dealColsGo, eliminateGo)
					if i, j, ok := sameBitsOrWithin(got, want, -1); !ok {
						t.Fatalf("%s n=%d m=%d poison=%g: parent cell (%d,%d) = %g, portable bodies give %g",
							fc.name, n, m, poison, i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
}

// TestEliminateMatchesPortable: the AVX2 row update gives the portable body's
// bits for every width up to two 32-column passes plus every tail and for up
// to nine coefficients, rows at a stride with other values in the gaps, Inf
// and NaN included, and writes nothing past dst.
func TestEliminateMatchesPortable(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2/FMA on this host")
	}
	rng := rand.New(rand.NewSource(3))
	for m := 0; m <= 70; m++ {
		for nk := 0; nk <= 9; nk++ {
			ld := m + rng.Intn(5)
			src := make([]float64, nk*ld+m)
			for i := range src {
				src[i] = 2*rng.Float64() - 1
			}
			coef := make([]float64, nk)
			for i := range coef {
				coef[i] = 2*rng.Float64() - 1
			}
			if m > 0 && nk > 0 {
				src[rng.Intn(nk)*ld+rng.Intn(m)] = math.Inf(1)
				src[rng.Intn(nk)*ld+rng.Intn(m)] = math.NaN()
			}
			dst := make([]float64, m+4)
			for i := range dst {
				dst[i] = 2*rng.Float64() - 1
			}
			got, want := append([]float64(nil), dst...), append([]float64(nil), dst...)
			eliminateAVX2(got[:m], src, ld, coef)
			eliminateGo(want[:m], src, ld, coef)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("m=%d nk=%d ld=%d: dst[%d] = %g, portable body has %g", m, nk, ld, i, got[i], want[i])
				}
			}
		}
	}
}
