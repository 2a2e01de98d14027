package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGemmPackedAgreesWithNaive(t *testing.T) {
	for _, s := range []struct{ m, n, k int }{
		{1, 1, 1}, {7, 9, 11}, {64, 64, 64}, {65, 63, 67}, {128, 32, 96},
		{5, 7, 129}, {130, 70, 257}, // more than one packDepth panel, the last one short
	} {
		a, b, ref := randomGEMM(t, s.m, s.n, s.k, 11)
		if err := GemmNaive(a, b, ref); err != nil {
			t.Fatal(err)
		}
		c := NewMatrix(s.m, s.n)
		if err := GemmPacked(a, b, c, 24); err != nil {
			t.Fatal(err)
		}
		if d := MaxDiff(ref, c); d > 1e-9 {
			t.Fatalf("%+v: maxdiff %g", s, d)
		}
	}
}

func TestGemmPackedOnStridedViews(t *testing.T) {
	// Packing must be correct when operands are tile views into a larger
	// parent (non-compact stride) — the case it exists for.
	parent := NewMatrix(64, 64)
	parent.FillRandom(3)
	a := parent.Sub(0, 0, 24, 24)
	b := parent.Sub(8, 8, 24, 24)
	ref := NewMatrix(24, 24)
	if err := GemmNaive(a, b, ref); err != nil {
		t.Fatal(err)
	}
	c := NewMatrix(24, 24)
	if err := GemmPacked(a, b, c, 10); err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(ref, c); d > 1e-9 {
		t.Fatalf("strided maxdiff %g", d)
	}
}

func TestGemmPackedShapeAndDefaults(t *testing.T) {
	a, b, c := NewMatrix(2, 3), NewMatrix(4, 2), NewMatrix(2, 2)
	if err := GemmPacked(a, b, c, 8); err == nil {
		t.Fatal("shape mismatch must fail")
	}
	// block is the scalar kernels' knob: the packed path gives the same bits
	// for every value, the non-positive ones included.
	a2, b2, ref := randomGEMM(t, 150, 40, 300, 5)
	if err := GemmNaive(a2, b2, ref); err != nil {
		t.Fatal(err)
	}
	var first *Matrix
	for _, block := range []int{0, -3, 1, 24, 1000} {
		c2 := NewMatrix(150, 40)
		if err := GemmPacked(a2, b2, c2, block); err != nil {
			t.Fatal(err)
		}
		if d := MaxDiff(ref, c2); d > 1e-9 {
			t.Fatalf("block %d maxdiff %g", block, d)
		}
		if first == nil {
			first = c2
		} else if _, _, same := sameBitsOrWithin(c2, first, -1); !same {
			t.Fatalf("block %d changed the packed result", block)
		}
	}
}

// TestGemmPackedDegenerateShapes cross-checks the packed kernels against the
// naive kernel on the shapes that stress panel edges: single-row, single-
// column, single-inner-dim, and empty (m, n or k zero — a no-op by the
// C += A·B contract).
func TestGemmPackedDegenerateShapes(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{1, 64, 64}, {64, 1, 64}, {64, 64, 1},
		{1, 1, 64}, {1, 64, 1}, {64, 1, 1}, {1, 1, 1},
		{0, 8, 8}, {8, 0, 8}, {8, 8, 0}, {0, 0, 0},
		{3, 129, 65}, {129, 3, 7},
	}
	for _, s := range shapes {
		a, b := NewMatrix(s.m, s.k), NewMatrix(s.k, s.n)
		a.FillRandom(int64(s.m*1000 + s.n*100 + s.k))
		b.FillRandom(int64(s.n*1000 + s.k*100 + s.m))
		ref := NewMatrix(s.m, s.n)
		if err := GemmNaive(a, b, ref); err != nil {
			t.Fatalf("%+v: naive: %v", s, err)
		}
		c1 := NewMatrix(s.m, s.n)
		if err := GemmPacked(a, b, c1, 32); err != nil {
			t.Fatalf("%+v: packed: %v", s, err)
		}
		if d := MaxDiff(ref, c1); d > 1e-9 {
			t.Errorf("%+v: packed maxdiff %g", s, d)
		}
		for _, workers := range []int{1, 2, 3, 5} {
			c2 := NewMatrix(s.m, s.n)
			if err := GemmPackedParallel(a, b, c2, 32, workers); err != nil {
				t.Fatalf("%+v w=%d: packed-parallel: %v", s, workers, err)
			}
			if d := MaxDiff(ref, c2); d > 1e-9 {
				t.Errorf("%+v w=%d: packed-parallel maxdiff %g", s, workers, d)
			}
		}
	}
}

// Property-based: packed-parallel agrees with naive for any worker count on
// random non-block-multiple shapes.
func TestQuickGemmPackedParallelAgreesWithNaive(t *testing.T) {
	f := func(mm, nn, kk, bb, ww uint8, seed int64) bool {
		m, n, k := int(mm%33)+1, int(nn%33)+1, int(kk%33)+1
		block := int(bb%13) + 1
		workers := int(ww%6) + 1
		a, b := NewMatrix(m, k), NewMatrix(k, n)
		a.FillRandom(seed)
		b.FillRandom(seed + 1)
		ref, c := NewMatrix(m, n), NewMatrix(m, n)
		if GemmNaive(a, b, ref) != nil || GemmPackedParallel(a, b, c, block, workers) != nil {
			return false
		}
		return MaxDiff(ref, c) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property-based: packed and blocked agree on random shapes and blocks.
func TestQuickGemmPackedAgreesWithBlocked(t *testing.T) {
	f := func(mm, nn, kk, bb uint8, seed int64) bool {
		m, n, k := int(mm%20)+1, int(nn%20)+1, int(kk%20)+1
		block := int(bb%10) + 1
		a, b := NewMatrix(m, k), NewMatrix(k, n)
		a.FillRandom(seed)
		b.FillRandom(seed + 1)
		c1, c2 := NewMatrix(m, n), NewMatrix(m, n)
		if GemmBlocked(a, b, c1, block) != nil || GemmPacked(a, b, c2, block) != nil {
			return false
		}
		return MaxDiff(c1, c2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// viaScratch is the micro-kernel's previous contract on top of the current
// one: the k-sum lands in a scratch tile and Go code adds all of it to C.
// Installed as microKernel it sends every micro-tile of a product down the
// scratch path, the full ones included.
func viaScratch(kernel microKernelFunc) microKernelFunc {
	return func(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool) {
		var out microAccum
		kernel(kb, a, ars, aks, pb, out[:], microN, false)
		for i := 0; i < microM; i++ {
			applyRow(c[i*ldc:][:microN], out[i*microN:], neg)
		}
	}
}

// pairOf is a pair kernel made of two calls of kernel, one per strip: what
// microKernel2 must equal bit for bit when kernel is the installed
// microKernel, and a stand-in for it on hosts that have none.
func pairOf(kernel microKernelFunc) microKernelFunc {
	return func(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool) {
		kernel(kb, a, ars, aks, pb, c, ldc, neg)
		kernel(kb, a, ars, aks, pb[kb*microN:], c[microN:], ldc, neg)
	}
}

// keepKernels returns the installed microKernel and microKernel2 and puts
// them back when the test ends, for tests that install others in their place.
func keepKernels(t *testing.T) (single, pair microKernelFunc) {
	single, pair = microKernel, microKernel2
	t.Cleanup(func() { microKernel, microKernel2 = single, pair })
	return single, pair
}

// productCase is one random packed product on strided views: operands and C
// are tiles of larger parents, C's parent filled with a sentinel around (and,
// for a lower-triangular product, above the diagonal of) the view. A's view
// is flush against the end of its parent — its last row is the parent's last
// row and its last column the parent's last column — so a read past A's last
// row or column runs off the end of the parent's data.
type productCase struct {
	op      product
	a, b, c *Matrix
	parent  *Matrix // C's parent
}

// sentinel is of the data's own magnitude: a stray ±= of a k-sum must change
// its bits, which a huge value would absorb.
const sentinel = 1.0 / 3

func randomProduct(rng *rand.Rand) productCase {
	op := product{neg: rng.Intn(2) == 0, transB: rng.Intn(2) == 0, lower: rng.Intn(3) == 0}
	m, n, k := 1+rng.Intn(70), 1+rng.Intn(70), 1+rng.Intn(200)
	if op.lower {
		n = m
	}
	tile := func(rows, cols, below, right int) (view, parent *Matrix) {
		i, j := rng.Intn(4), rng.Intn(11)
		parent = NewMatrix(rows+i+below, cols+j+right)
		parent.FillRandom(rng.Int63())
		return parent.Sub(i, j, rows, cols), parent
	}
	pc := productCase{op: op}
	pc.a, _ = tile(m, k, 0, 0)
	if op.transB {
		pc.b, _ = tile(n, k, 2, 9)
	} else {
		pc.b, _ = tile(k, n, 2, 9)
	}
	pc.c, pc.parent = tile(m, n, 2, 9)
	inside := pc.c.Clone()
	for i := range pc.parent.Data {
		pc.parent.Data[i] = sentinel
	}
	keep := all
	if op.lower {
		keep = lower
	}
	fillWhere(pc.c, inside, keep)
	return pc
}

// TestFusedWriteBackMatchesScratch: the kernels applying full tiles to C give,
// bit for bit, what the scratch-and-add path they replaced gave — over random
// extents that are multiples of neither 6 nor 8, depths from 1 past
// packDepth, strided views, both signs, both B orientations and the lower
// triangle. The fused run has both installed kernels, the pair kernel where
// the host has one; the scratch run takes the pair kernel out, so that every
// micro-tile goes down the scratch path.
func TestFusedWriteBackMatchesScratch(t *testing.T) {
	kernel, pair := keepKernels(t)
	for seed := int64(0); seed < 300; seed++ {
		fused, scratch := randomProduct(rand.New(rand.NewSource(seed))), randomProduct(rand.New(rand.NewSource(seed)))
		microKernel, microKernel2 = kernel, pair
		packedProduct(fused.a, fused.b, fused.c, fused.op, 1)
		microKernel, microKernel2 = viaScratch(kernel), nil
		packedProduct(scratch.a, scratch.b, scratch.c, scratch.op, 1)
		if i, j, same := sameBitsOrWithin(fused.parent, scratch.parent, -1); !same {
			t.Fatalf("seed %d %+v %dx%dx%d: C parent cell (%d,%d) fused %g, via scratch %g", seed, fused.op,
				fused.c.Rows, fused.c.Cols, fused.a.Cols, i, j, fused.parent.At(i, j), scratch.parent.At(i, j))
		}
	}
}

// TestPairedKernelMatchesSingle: the driver's pair branch moves no bits. 300
// random products (randomProduct: both signs, both B orientations, the lower
// triangle, strided views) run once with a pair kernel installed and once
// with none, and C's whole parent, sentinel cells included, must come out the
// same. The pair kernel is two calls of the installed single kernel — which
// pins the pairing rule on every host — and, where the CPU has AVX-512, the
// assembly pair kernel itself.
func TestPairedKernelMatchesSingle(t *testing.T) {
	single, installed := keepKernels(t)
	for _, k := range []struct {
		name string
		pair microKernelFunc
	}{{"two-calls", pairOf(single)}, {"installed", installed}} {
		t.Run(k.name, func(t *testing.T) {
			if k.pair == nil {
				t.Skip("no pair kernel installed: this CPU or build has no AVX-512 kernel")
			}
			pairs := 0
			counted := func(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool) {
				pairs++
				k.pair(kb, a, ars, aks, pb, c, ldc, neg)
			}
			for seed := int64(0); seed < 300; seed++ {
				paired, alone := randomProduct(rand.New(rand.NewSource(seed))), randomProduct(rand.New(rand.NewSource(seed)))
				microKernel, microKernel2 = single, counted
				packedProduct(paired.a, paired.b, paired.c, paired.op, 1)
				microKernel, microKernel2 = single, nil
				packedProduct(alone.a, alone.b, alone.c, alone.op, 1)
				if i, j, same := sameBitsOrWithin(paired.parent, alone.parent, -1); !same {
					t.Fatalf("seed %d %+v %dx%dx%d: C parent cell (%d,%d) paired %g, single %g", seed, paired.op,
						paired.c.Rows, paired.c.Cols, paired.a.Cols, i, j, paired.parent.At(i, j), alone.parent.At(i, j))
				}
			}
			if pairs == 0 {
				t.Fatal("no product took the pair branch")
			}
		})
	}
}

// TestKernelWritesOnlyItsTile: handing a kernel the address of C must not let
// it write past C. A spy in front of each installed kernel — the 6×8 one and,
// where there is one, the 6×16 pair — checks every tile it is pointed at
// inside C's parent: all microM rows of its width within the view and, for a
// lower-triangular product, on or below the diagonal (a stray write of a
// zero-padded row or column adds 0 and would not show in the values). After
// each product every cell of the parent outside the view, and every
// strictly-upper cell inside a lower-triangular one, still holds the
// sentinel's bits.
func TestKernelWritesOnlyItsTile(t *testing.T) {
	kernel, pair := keepKernels(t)
	for seed := int64(0); seed < 300; seed++ {
		pc := randomProduct(rand.New(rand.NewSource(seed)))
		data := pc.parent.Data
		i0, j0 := (len(data)-len(pc.c.Data))/pc.parent.Stride, (len(data)-len(pc.c.Data))%pc.parent.Stride
		spy := func(kernel microKernelFunc, width int) microKernelFunc {
			if kernel == nil {
				return nil
			}
			return func(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool) {
				if &c[:cap(c)][cap(c)-1] == &data[len(data)-1] { // a tile of C, not the scratch
					at := len(data) - cap(c)
					r, q := at/pc.parent.Stride-i0, at%pc.parent.Stride-j0
					if ldc != pc.parent.Stride || r < 0 || q < 0 || r+microM > pc.c.Rows || q+width > pc.c.Cols || pc.op.lower && q+width-1 > r {
						t.Errorf("seed %d %+v C %dx%d: %d-wide kernel pointed at tile (%d,%d) stride %d", seed, pc.op, pc.c.Rows, pc.c.Cols, width, r, q, ldc)
					}
				}
				kernel(kb, a, ars, aks, pb, c, ldc, neg)
			}
		}
		microKernel, microKernel2 = spy(kernel, microN), spy(pair, 2*microN)
		packedProduct(pc.a, pc.b, pc.c, pc.op, 1)
		for i := 0; i < pc.parent.Rows; i++ {
			for j := 0; j < pc.parent.Cols; j++ {
				r, q := i-i0, j-j0
				if r >= 0 && r < pc.c.Rows && q >= 0 && q < pc.c.Cols && (!pc.op.lower || q <= r) {
					continue // the product's own cells
				}
				if got := pc.parent.At(i, j); math.Float64bits(got) != math.Float64bits(sentinel) {
					t.Fatalf("seed %d %+v C %dx%d at (%d,%d): parent cell (%d,%d) = %g, want the sentinel",
						seed, pc.op, pc.c.Rows, pc.c.Cols, i0, j0, i, j, got)
				}
			}
		}
	}
}

// TestKernelReadsOnlyItsRows: a full strip of A reaches the kernels where it
// lies in A, so a kernel must read nothing of A's parent outside the strip's
// microM rows and kb columns. A's view is flush against the end of its parent
// (randomProduct): a read of a seventh row, or past column p0+kb, from the
// bottom strip runs off the parent's data and panics on the kernel's
// re-slice. A spy in front of each installed kernel (the pair kernel too,
// where there is one) checks every strip: one in place starts inside A's view
// at A's stride and its rows and columns end inside the view; any other is
// the packed tail, k-major microM wide.
func TestKernelReadsOnlyItsRows(t *testing.T) {
	kernel, pair := keepKernels(t)
	inPlace := 0
	for seed := int64(0); seed < 300; seed++ {
		pc := randomProduct(rand.New(rand.NewSource(seed)))
		view := pc.a.Data
		spy := func(kernel microKernelFunc) microKernelFunc {
			if kernel == nil {
				return nil
			}
			return func(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool) {
				if &a[:cap(a)][cap(a)-1] != &view[len(view)-1] { // the packed tail
					if ars != 1 || aks != microM || len(a) < microM*kb {
						t.Errorf("seed %d A %dx%d: a packed strip of %d at strides (%d,%d)", seed, pc.a.Rows, pc.a.Cols, len(a), ars, aks)
					}
				} else if at := len(view) - cap(a); ars != pc.a.Stride || aks != 1 || at < 0 ||
					at/ars+microM > pc.a.Rows || at%ars+kb > pc.a.Cols {
					t.Errorf("seed %d A %dx%d stride %d: an in-place strip at offset %d, strides (%d,%d), depth %d",
						seed, pc.a.Rows, pc.a.Cols, pc.a.Stride, at, ars, aks, kb)
				} else {
					inPlace++
				}
				kernel(kb, a, ars, aks, pb, c, ldc, neg)
			}
		}
		microKernel, microKernel2 = spy(kernel), spy(pair)
		packedProduct(pc.a, pc.b, pc.c, pc.op, 1)
	}
	if inPlace == 0 {
		t.Fatal("no strip of A was read in place")
	}
}

// TestPackRowsMatchesScalar: the row pack with the installed four-row pass
// (the AVX2 transpose where there is one) fills every strip exactly as the
// portable pass does, tails and zero padding included, and stays inside it.
func TestPackRowsMatchesScalar(t *testing.T) {
	installed := packFour
	defer func() { packFour = installed }()
	src := NewMatrix(24, 40)
	src.FillRandom(8)
	for _, w := range []int{microM, microN} {
		for rows := 1; rows <= 17; rows++ {
			for kb := 0; kb <= 19; kb++ {
				pack := func(four func(int, []float64, int, []float64, int)) []float64 {
					packFour = four
					dst := make([]float64, roundUp(rows, w)*kb+w)
					for i := range dst {
						dst[i] = sentinel
					}
					packRows(src, 3, 5, rows, kb, w, dst)
					return dst
				}
				got, want := pack(installed), pack(packFourGo)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("w=%d rows=%d kb=%d: dst[%d] = %g, portable pack has %g", w, rows, kb, i, got[i], want[i])
					}
				}
				if tail := want[len(want)-w:]; kb > 0 && tail[0] != sentinel {
					t.Fatalf("w=%d rows=%d kb=%d: the pack wrote past its strips", w, rows, kb)
				}
			}
		}
	}
}

// packColsByColumn is packCols as it walked b before: strip by strip, down
// each strip's columns. The reference for TestPackColsMatchesColumnWalk.
func packColsByColumn(b *Matrix, p0, j0, kb, nb int, pb []float64) {
	for j := 0; j < nb; j += microN {
		strip := pb[j*kb : (j+microN)*kb]
		jw := min(microN, nb-j)
		for p := 0; p < kb; p++ {
			dst := strip[p*microN : (p+1)*microN]
			n := copy(dst, b.Data[(p0+p)*b.Stride+j0+j:][:jw])
			clear(dst[n:])
		}
	}
}

// TestPackColsMatchesColumnWalk: the row-wise column pack fills every strip
// exactly as the strip-by-strip walk did — the same values at the same
// positions, the zero padding of a short last strip included — and writes
// nothing past its strips, on random strided views whose width is not a
// multiple of microN.
func TestPackColsMatchesColumnWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		kb, nb := 1+rng.Intn(140), 1+rng.Intn(70)
		if nb%microN == 0 {
			nb++
		}
		p0, j0 := rng.Intn(5), rng.Intn(11)
		parent := randomMatrix(p0+kb+rng.Intn(3), j0+nb+rng.Intn(9), rng.Int63())
		pack := func(pack func(*Matrix, int, int, int, int, []float64)) []float64 {
			dst := make([]float64, roundUp(nb, microN)*kb+microN)
			for i := range dst {
				dst[i] = sentinel
			}
			pack(parent, p0, j0, kb, nb, dst)
			return dst
		}
		got, want := pack(packCols), pack(packColsByColumn)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("kb=%d nb=%d at (%d,%d) stride %d: pb[%d] = %g, the column walk has %g",
					kb, nb, p0, j0, parent.Stride, i, got[i], want[i])
			}
		}
		if tail := got[len(got)-microN:]; tail[0] != sentinel {
			t.Fatalf("kb=%d nb=%d: the pack wrote past its strips", kb, nb)
		}
	}
}
