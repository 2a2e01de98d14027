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
// Installed as the tile it sends every micro-tile of a product down the
// scratch path, the full ones included.
func viaScratch(t regTile) regTile {
	kernel := t.kernel
	t.kernel = func(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool) {
		var out microAccum
		kernel(kb, a, ars, aks, pb, out[:], t.n, false)
		for i := 0; i < t.m; i++ {
			applyRow(c[i*ldc:][:t.n], out[i*t.n:], neg)
		}
	}
	return t
}

// tileFrom6x8 is an m×n tile (m ≥ 6, n a multiple of microN) made of calls
// of kernel, a 6×8 one: a call per strip of B and six rows of A, the last
// six rows taken on a copy of C when m is not a multiple of six, so that the
// rows two calls share are applied once. Each element is the 6×8 kernel's,
// bit for bit — what the 8×16 kernel must equal when kernel is the AVX2 one,
// and a stand-in for it on hosts that have none.
func tileFrom6x8(kernel microKernelFunc, m, n int) regTile {
	return regTile{m: m, n: n, kernel: func(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool) {
		for s := 0; s < n && kb > 0; s += microN {
			for r0 := 0; r0 < m; r0 += 6 {
				if r0+6 <= m {
					kernel(kb, a[r0*ars:], ars, aks, pb[s*kb:], c[r0*ldc+s:], ldc, neg)
					continue
				}
				r := m - 6
				rows := append([]float64(nil), c[r*ldc+s:][:5*ldc+microN]...)
				kernel(kb, a[r*ars:], ars, aks, pb[s*kb:], rows, ldc, neg)
				for i := r0; i < m; i++ {
					copy(c[i*ldc+s:][:microN], rows[(i-r)*ldc:])
				}
			}
		}
	}}
}

// keepTile returns the installed register tile and puts it back when the
// test ends, for tests that install others in its place.
func keepTile(t *testing.T) regTile {
	installed := tile
	t.Cleanup(func() { tile = installed })
	return installed
}

// testTiles are the register tiles a product's bits may not depend on, in
// families whose members must agree bit for bit: the portable 6×8 kernel and
// an 8×16 tile made of it, and, where the host has them, the assembly tiles
// (the AVX2 6×8 kernel, the AVX-512 8×16 one) with an 8×16 tile made of the
// AVX2 kernel. The portable family rounds every product, so its bits are not
// the assembly's.
func testTiles() [][]regTile {
	families := [][]regTile{{{microKernelGo, 6, microN}, tileFrom6x8(microKernelGo, 8, 2*microN)}}
	if asm := asmTiles(); len(asm) > 0 {
		families = append(families, append(asm, tileFrom6x8(asm[0].kernel, 8, 2*microN)))
	}
	return families
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

func randomProduct(rng *rand.Rand) productCase { return randomProductUpTo(rng, 70, 200) }

// randomProductUpTo is randomProduct with m and n drawn from 1 to ext and k
// from 1 to depth.
func randomProductUpTo(rng *rand.Rand, ext, depth int) productCase {
	op := product{neg: rng.Intn(2) == 0, transB: rng.Intn(2) == 0, lower: rng.Intn(3) == 0}
	m, n, k := 1+rng.Intn(ext), 1+rng.Intn(ext), 1+rng.Intn(depth)
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

// TestFusedWriteBackMatchesScratch: a tile's kernel applying full tiles to C
// gives, bit for bit, what the scratch-and-add path it replaced gave — over
// random extents that are multiples of neither 6 nor 8, depths from 1 past
// packDepth, strided views, both signs, both B orientations and the lower
// triangle, on every tile of testTiles. The scratch run sends every
// micro-tile down the scratch path.
func TestFusedWriteBackMatchesScratch(t *testing.T) {
	keepTile(t)
	for _, family := range testTiles() {
		for _, rt := range family {
			for seed := int64(0); seed < 300; seed++ {
				fused, scratch := randomProduct(rand.New(rand.NewSource(seed))), randomProduct(rand.New(rand.NewSource(seed)))
				tile = rt
				packedProduct(fused.a, fused.b, fused.c, fused.op, 1)
				tile = viaScratch(rt)
				packedProduct(scratch.a, scratch.b, scratch.c, scratch.op, 1)
				if i, j, same := sameBitsOrWithin(fused.parent, scratch.parent, -1); !same {
					t.Fatalf("%s seed %d %+v %dx%dx%d: C parent cell (%d,%d) fused %g, via scratch %g", rt.shape(), seed, fused.op,
						fused.c.Rows, fused.c.Cols, fused.a.Cols, i, j, fused.parent.At(i, j), scratch.parent.At(i, j))
				}
			}
		}
	}
}

// poisonPackPool leaves two NaN-filled pack buffers in the pool, large enough
// for every panel of a product up to 300 wide, so that the next product's B
// panel and A tail strip start out as NaN: a pad strip packedProduct reads
// without zeroing, or a pad column or row that reaches C, shows there.
func poisonPackPool() {
	for _, ps := range []*packScratch{packBuf(1 << 16), packBuf(1 << 16)} {
		for i := range ps.buf {
			ps.buf[i] = math.NaN()
		}
		for i := range ps.out {
			ps.out[i] = math.NaN()
		}
		defer packPool.Put(ps)
	}
}

// TestTileShapesGiveSameBits: which register tile applied a product does not
// show in a single bit. Random products (randomProductUpTo: both signs, both B
// orientations, the lower triangle, strided views) with extents from 1 to 300
// — widths with nb mod 16 = 8, which leave the 16-wide tile an odd strip, and
// heights off a multiple of 8, which leave the 8-row tile a packed A tail,
// among them — run once per tile of each testTiles family onto a NaN-poisoned
// pack pool, and C's whole parent, sentinel cells included, must come out the
// same for every tile of the family.
func TestTileShapesGiveSameBits(t *testing.T) {
	keepTile(t)
	seeds := int64(120)
	if raceEnabled {
		seeds = 20
	}
	oddStrip, aTail := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		draw := func() productCase { return randomProductUpTo(rand.New(rand.NewSource(seed)), 300, 300) }
		pc := draw()
		if pc.c.Cols%16 == 8 {
			oddStrip++
		}
		if pc.c.Rows%8 != 0 {
			aTail++
		}
		for _, family := range testTiles() {
			var first productCase
			for i, rt := range family {
				got := draw()
				tile = rt
				poisonPackPool()
				packedProduct(got.a, got.b, got.c, got.op, 1)
				if i == 0 {
					first = got
					continue
				}
				if r, q, same := sameBitsOrWithin(got.parent, first.parent, -1); !same {
					t.Fatalf("seed %d %+v %dx%dx%d: C parent cell (%d,%d) is %g on the %s tile, %g on the %s tile", seed, got.op,
						got.c.Rows, got.c.Cols, got.a.Cols, r, q, got.parent.At(r, q), rt.shape(), first.parent.At(r, q), family[0].shape())
				}
			}
		}
	}
	if oddStrip == 0 || aTail == 0 {
		t.Fatalf("of %d products %d had nb mod 16 = 8 and %d an A tail on the 8-row tile, want some of each", seeds, oddStrip, aTail)
	}
}

// TestPairedKernelMatchesSingle: a tile that applies two adjacent B strips
// per call moves no bits against the single-strip 6×8 tile. 300 random
// products (randomProduct: both signs, both B orientations, the lower
// triangle, strided views) run once on an 8×16 tile and once on the 6×8 one,
// and C's whole parent, sentinel cells included, must come out the same. The
// 16-wide tile is made of calls of the single kernel (tileFrom6x8) — which
// pins the driver's 16-wide sizing, the zero partner strip and the clipped
// tiles on every host — and, where the CPU has AVX-512, the installed 8×16
// kernel itself. A spy requires that the 16-wide tile ran.
func TestPairedKernelMatchesSingle(t *testing.T) {
	installed := keepTile(t)
	single := regTile{microKernelGo, 6, microN}
	if asm := asmTiles(); len(asm) > 0 {
		single = asm[0]
	}
	for _, k := range []struct {
		name string
		pair regTile
	}{{"two-calls", tileFrom6x8(single.kernel, 8, 2*microN)}, {"installed", installed}} {
		t.Run(k.name, func(t *testing.T) {
			if k.pair.n != 2*microN {
				t.Skip("no 16-wide tile installed: this CPU or build has no AVX-512 kernel")
			}
			pairs := 0
			counted := k.pair
			counted.kernel = func(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool) {
				pairs++
				k.pair.kernel(kb, a, ars, aks, pb, c, ldc, neg)
			}
			for seed := int64(0); seed < 300; seed++ {
				paired, alone := randomProduct(rand.New(rand.NewSource(seed))), randomProduct(rand.New(rand.NewSource(seed)))
				tile = counted
				packedProduct(paired.a, paired.b, paired.c, paired.op, 1)
				tile = single
				packedProduct(alone.a, alone.b, alone.c, alone.op, 1)
				if i, j, same := sameBitsOrWithin(paired.parent, alone.parent, -1); !same {
					t.Fatalf("seed %d %+v %dx%dx%d: C parent cell (%d,%d) paired %g, single %g", seed, paired.op,
						paired.c.Rows, paired.c.Cols, paired.a.Cols, i, j, paired.parent.At(i, j), alone.parent.At(i, j))
				}
			}
			if pairs == 0 {
				t.Fatal("no product reached the 16-wide tile")
			}
		})
	}
}

// TestTileOrder128PacksNoA: on the 8-row tile, a 128-tile and every half
// splitAt makes of it split into whole strips of A, so none of the nine tile
// kernels hands the micro-kernel a packed A strip (aks ≠ 1) at tile order 128.
func TestTileOrder128PacksNoA(t *testing.T) {
	installed := keepTile(t)
	rt := installed
	if rt.m != 8 {
		rt = tileFrom6x8(microKernelGo, 8, 2*microN)
	}
	calls := 0
	kernel := rt.kernel
	for _, fc := range goldenKernels() {
		rt.kernel = func(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool) {
			calls++
			if aks != 1 {
				t.Errorf("%s at 128: a packed A strip (strides %d, %d) reached the 8x16 kernel", fc.name, ars, aks)
			}
			kernel(kb, a, ars, aks, pb, c, ldc, neg)
		}
		tile = rt
		shapes := fc.shapes(128, 128, 128)
		tiles := carve(carveParent(shapes, 0), shapes)
		fc.fill(tiles, 3)
		if err := fc.kernel(tiles); err != nil {
			t.Fatalf("%s: %v", fc.name, err)
		}
	}
	if calls == 0 {
		t.Fatal("no kernel call reached the spy")
	}
}

// TestKernelWritesOnlyItsTile: handing a kernel the address of C must not let
// it write past C. A spy in front of each tile of testTiles checks every
// micro-tile it is pointed at inside C's parent: all tile.m rows and tile.n
// columns within the view and, for a lower-triangular product, on or below
// the diagonal (a stray write of a zero-padded row or column adds 0 and would
// not show in the values). After each product every cell of the parent
// outside the view, and every strictly-upper cell inside a lower-triangular
// one, still holds the sentinel's bits.
func TestKernelWritesOnlyItsTile(t *testing.T) {
	keepTile(t)
	for _, family := range testTiles() {
		for _, rt := range family {
			for seed := int64(0); seed < 300; seed++ {
				pc := randomProduct(rand.New(rand.NewSource(seed)))
				data := pc.parent.Data
				i0, j0 := (len(data)-len(pc.c.Data))/pc.parent.Stride, (len(data)-len(pc.c.Data))%pc.parent.Stride
				spy := rt
				spy.kernel = func(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool) {
					if &c[:cap(c)][cap(c)-1] == &data[len(data)-1] { // a tile of C, not the scratch
						at := len(data) - cap(c)
						r, q := at/pc.parent.Stride-i0, at%pc.parent.Stride-j0
						if ldc != pc.parent.Stride || r < 0 || q < 0 || r+rt.m > pc.c.Rows || q+rt.n > pc.c.Cols || pc.op.lower && q+rt.n-1 > r {
							t.Errorf("%s seed %d %+v C %dx%d: kernel pointed at tile (%d,%d) stride %d", rt.shape(), seed, pc.op, pc.c.Rows, pc.c.Cols, r, q, ldc)
						}
					}
					rt.kernel(kb, a, ars, aks, pb, c, ldc, neg)
				}
				tile = spy
				packedProduct(pc.a, pc.b, pc.c, pc.op, 1)
				for i := 0; i < pc.parent.Rows; i++ {
					for j := 0; j < pc.parent.Cols; j++ {
						r, q := i-i0, j-j0
						if r >= 0 && r < pc.c.Rows && q >= 0 && q < pc.c.Cols && (!pc.op.lower || q <= r) {
							continue // the product's own cells
						}
						if got := pc.parent.At(i, j); math.Float64bits(got) != math.Float64bits(sentinel) {
							t.Fatalf("%s seed %d %+v C %dx%d at (%d,%d): parent cell (%d,%d) = %g, want the sentinel",
								rt.shape(), seed, pc.op, pc.c.Rows, pc.c.Cols, i0, j0, i, j, got)
						}
					}
				}
			}
		}
	}
}

// TestKernelReadsOnlyItsRows: a full strip of A reaches the kernel where it
// lies in A, so a kernel must read nothing of A's parent outside the strip's
// tile.m rows and kb columns. A's view is flush against the end of its parent
// (randomProduct): a read of a row past the strip, or past column p0+kb, from
// the bottom strip runs off the parent's data and panics on the kernel's
// re-slice. A spy in front of each tile of testTiles checks every strip: one
// in place starts inside A's view at A's stride and its rows and columns end
// inside the view; any other is the packed tail, k-major tile.m wide.
func TestKernelReadsOnlyItsRows(t *testing.T) {
	keepTile(t)
	for _, family := range testTiles() {
		for _, rt := range family {
			inPlace := 0
			for seed := int64(0); seed < 300; seed++ {
				pc := randomProduct(rand.New(rand.NewSource(seed)))
				view := pc.a.Data
				spy := rt
				spy.kernel = func(kb int, a []float64, ars, aks int, pb, c []float64, ldc int, neg bool) {
					if &a[:cap(a)][cap(a)-1] != &view[len(view)-1] { // the packed tail
						if ars != 1 || aks != rt.m || len(a) < rt.m*kb {
							t.Errorf("%s seed %d A %dx%d: a packed strip of %d at strides (%d,%d)", rt.shape(), seed, pc.a.Rows, pc.a.Cols, len(a), ars, aks)
						}
					} else if at := len(view) - cap(a); ars != pc.a.Stride || aks != 1 || at < 0 ||
						at/ars+rt.m > pc.a.Rows || at%ars+kb > pc.a.Cols {
						t.Errorf("%s seed %d A %dx%d stride %d: an in-place strip at offset %d, strides (%d,%d), depth %d",
							rt.shape(), seed, pc.a.Rows, pc.a.Cols, pc.a.Stride, at, ars, aks, kb)
					} else {
						inPlace++
					}
					rt.kernel(kb, a, ars, aks, pb, c, ldc, neg)
				}
				tile = spy
				packedProduct(pc.a, pc.b, pc.c, pc.op, 1)
			}
			if inPlace == 0 {
				t.Fatalf("%s: no strip of A was read in place", rt.shape())
			}
		}
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
	for _, w := range []int{6, microN} { // A tails of either tile, and Bᵀ
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
// nothing past its strips, on random strided views, with the installed deal
// (the AVX2 one where there is one) and with the portable body. Depths below
// four and off a multiple of four reach the deal's one-row tail; widths off a
// multiple of microN the short last strip.
func TestPackColsMatchesColumnWalk(t *testing.T) {
	installed := dealCols
	defer func() { dealCols = installed }()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		kb, nb := 1+rng.Intn(140), 1+rng.Intn(70)
		if trial < 24 {
			kb = 1 + trial%6 // 1, 2, 3: all tail; 4: one pass; 5, 6: both
		}
		if nb%microN == 0 && trial%2 == 0 {
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
		want := pack(packColsByColumn)
		for _, deal := range []func(int, int, []float64, int, []float64){installed, dealColsGo} {
			dealCols = deal
			got := pack(packCols)
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
}
