package blas

import (
	"math"
	"strings"
	"testing"
)

// The naive full-size loops the blocked kernels of factor.go replaced, kept
// as the oracles the new kernels are checked against. Operands are assumed
// conformable.

func potrfNaive(a *Matrix) {
	n := a.Rows
	for j := 0; j < n; j++ {
		rowj := a.Data[j*a.Stride : j*a.Stride+j+1]
		d := rowj[j]
		for k := 0; k < j; k++ {
			d -= rowj[k] * rowj[k]
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
}

func trsmRLTNaive(l, b *Matrix) {
	n := l.Rows
	for i := 0; i < b.Rows; i++ {
		row := b.Data[i*b.Stride : i*b.Stride+n]
		for j := 0; j < n; j++ {
			lrow := l.Data[j*l.Stride : j*l.Stride+j+1]
			s := row[j]
			for k := 0; k < j; k++ {
				s -= row[k] * lrow[k]
			}
			row[j] = s / lrow[j]
		}
	}
}

func syrkNTNaive(a, c *Matrix) {
	k := a.Cols
	for i := 0; i < c.Rows; i++ {
		ai := a.Data[i*a.Stride : i*a.Stride+k]
		ci := c.Data[i*c.Stride : i*c.Stride+i+1]
		for j := 0; j <= i; j++ {
			aj := a.Data[j*a.Stride : j*a.Stride+k]
			s := 0.0
			for p := 0; p < k; p++ {
				s += ai[p] * aj[p]
			}
			ci[j] -= s
		}
	}
}

func gemmNTNaive(a, b, c *Matrix) {
	k := a.Cols
	for i := 0; i < c.Rows; i++ {
		ai := a.Data[i*a.Stride : i*a.Stride+k]
		ci := c.Data[i*c.Stride : i*c.Stride+c.Cols]
		for j := 0; j < c.Cols; j++ {
			bj := b.Data[j*b.Stride : j*b.Stride+k]
			s := 0.0
			for p := 0; p < k; p++ {
				s += ai[p] * bj[p]
			}
			ci[j] -= s
		}
	}
}

func getrfNaive(a *Matrix) {
	n := a.Rows
	for k := 0; k < n; k++ {
		rowk := a.Data[k*a.Stride : k*a.Stride+n]
		p := rowk[k]
		for i := k + 1; i < n; i++ {
			rowi := a.Data[i*a.Stride : i*a.Stride+n]
			lik := rowi[k] / p
			rowi[k] = lik
			for j := k + 1; j < n; j++ {
				rowi[j] -= lik * rowk[j]
			}
		}
	}
}

func trsmLLUnitNaive(l, b *Matrix) {
	for i := 1; i < l.Rows; i++ {
		rowi := b.Data[i*b.Stride : i*b.Stride+b.Cols]
		lrow := l.Data[i*l.Stride : i*l.Stride+i]
		for k := 0; k < i; k++ {
			rowk := b.Data[k*b.Stride : k*b.Stride+b.Cols]
			for j := range rowi {
				rowi[j] -= lrow[k] * rowk[j]
			}
		}
	}
}

func trsmRUNaive(u, b *Matrix) {
	n := u.Rows
	for i := 0; i < b.Rows; i++ {
		row := b.Data[i*b.Stride : i*b.Stride+n]
		for j := 0; j < n; j++ {
			s := row[j]
			for k := 0; k < j; k++ {
				s -= row[k] * u.At(k, j)
			}
			row[j] = s / u.At(j, j)
		}
	}
}

func gemmSubNaive(a, b, c *Matrix) {
	k := a.Cols
	for i := 0; i < c.Rows; i++ {
		ci := c.Data[i*c.Stride : i*c.Stride+c.Cols]
		for p := 0; p < k; p++ {
			av := a.At(i, p)
			bp := b.Data[p*b.Stride : p*b.Stride+c.Cols]
			for j := range ci {
				ci[j] -= av * bp[j]
			}
		}
	}
}

// symDiagDominant builds a symmetric diagonally-dominant matrix (hence SPD
// by Gershgorin): off-diagonals in [-1, 1), diagonal = n.
func symDiagDominant(n int, seed int64) *Matrix {
	m := NewMatrix(n, n)
	m.FillRandom(seed)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			m.Set(j, i, m.At(i, j))
		}
		m.Set(i, i, float64(n))
	}
	return m
}

// diagDominant builds a (non-symmetric) diagonally-dominant matrix, stable
// for LU without pivoting.
func diagDominant(n int, seed int64) *Matrix {
	m := NewMatrix(n, n)
	m.FillRandom(seed)
	for i := 0; i < n; i++ {
		m.Set(i, i, float64(n))
	}
	return m
}

// lowerFromPotrf extracts the lower triangle (diagonal included) of a
// factored matrix into a dense L, zeroing the rest.
func lowerFromPotrf(a *Matrix) *Matrix {
	l := NewMatrix(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j <= i; j++ {
			l.Set(i, j, a.At(i, j))
		}
	}
	return l
}

func TestPotrfReconstructs(t *testing.T) {
	const n = 64
	a := symDiagDominant(n, 7)
	orig := a.Clone()
	if err := Potrf(a); err != nil {
		t.Fatalf("Potrf: %v", err)
	}
	l := lowerFromPotrf(a)
	// L·Lᵀ must reproduce the original matrix.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			if d := math.Abs(s - orig.At(i, j)); d > 1e-10 {
				t.Fatalf("L·Lᵀ[%d][%d] off by %g", i, j, d)
			}
		}
	}
	// Strictly-upper part must be untouched.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if a.At(i, j) != orig.At(i, j) {
				t.Fatalf("Potrf touched upper element (%d,%d)", i, j)
			}
		}
	}
}

func TestPotrfRejectsIndefinite(t *testing.T) {
	a := NewMatrix(3, 3)
	a.FillIdentity()
	a.Set(1, 1, -1)
	if err := Potrf(a); err == nil {
		t.Fatal("Potrf accepted an indefinite matrix")
	}
	if err := Potrf(NewMatrix(2, 3)); err == nil {
		t.Fatal("Potrf accepted a non-square matrix")
	}
}

func TestTrsmRLTSolves(t *testing.T) {
	const n, m = 24, 17
	spd := symDiagDominant(n, 3)
	if err := Potrf(spd); err != nil {
		t.Fatalf("Potrf: %v", err)
	}
	l := lowerFromPotrf(spd)
	x := NewMatrix(m, n)
	x.FillRandom(5)
	// B = X·Lᵀ, then solving in place must recover X.
	b := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += x.At(i, k) * l.At(j, k)
			}
			b.Set(i, j, s)
		}
	}
	if err := TrsmRLT(l, b); err != nil {
		t.Fatalf("TrsmRLT: %v", err)
	}
	if d := MaxDiff(b, x); d > 1e-10 {
		t.Fatalf("TrsmRLT residual %g", d)
	}
}

func TestSyrkNTAndGemmNT(t *testing.T) {
	const n, k = 19, 13
	a := NewMatrix(n, k)
	a.FillRandom(11)
	b := NewMatrix(n, k)
	b.FillRandom(12)
	c := symDiagDominant(n, 13)
	want := c.Clone()
	if err := SyrkNT(a, c); err != nil {
		t.Fatalf("SyrkNT: %v", err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := want.At(i, j)
			if j <= i { // lower triangle only
				for p := 0; p < k; p++ {
					s -= a.At(i, p) * a.At(j, p)
				}
			}
			if d := math.Abs(c.At(i, j) - s); d > 1e-12 {
				t.Fatalf("SyrkNT[%d][%d] off by %g", i, j, d)
			}
		}
	}
	c2 := NewMatrix(n, n)
	c2.FillRandom(14)
	want2 := c2.Clone()
	if err := GemmNT(a, b, c2); err != nil {
		t.Fatalf("GemmNT: %v", err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := want2.At(i, j)
			for p := 0; p < k; p++ {
				s -= a.At(i, p) * b.At(j, p)
			}
			if d := math.Abs(c2.At(i, j) - s); d > 1e-12 {
				t.Fatalf("GemmNT[%d][%d] off by %g", i, j, d)
			}
		}
	}
}

func TestGetrfReconstructs(t *testing.T) {
	const n = 48
	a := diagDominant(n, 21)
	orig := a.Clone()
	if err := Getrf(a); err != nil {
		t.Fatalf("Getrf: %v", err)
	}
	// L (unit lower) times U must reproduce the original matrix.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k <= i && k <= j; k++ {
				lv := a.At(i, k)
				if k == i {
					lv = 1
				}
				s += lv * a.At(k, j)
			}
			if d := math.Abs(s - orig.At(i, j)); d > 1e-10 {
				t.Fatalf("L·U[%d][%d] off by %g", i, j, d)
			}
		}
	}
}

func TestGetrfRejectsZeroPivot(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	if err := Getrf(a); err == nil {
		t.Fatal("Getrf accepted a zero pivot")
	}
}

func TestTrsmLLUnitSolves(t *testing.T) {
	const n, m = 21, 15
	fac := diagDominant(n, 31)
	if err := Getrf(fac); err != nil {
		t.Fatalf("Getrf: %v", err)
	}
	x := NewMatrix(n, m)
	x.FillRandom(33)
	// B = L·X with L unit lower, then solving must recover X.
	b := NewMatrix(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			s := x.At(i, j)
			for k := 0; k < i; k++ {
				s += fac.At(i, k) * x.At(k, j)
			}
			b.Set(i, j, s)
		}
	}
	if err := TrsmLLUnit(fac, b); err != nil {
		t.Fatalf("TrsmLLUnit: %v", err)
	}
	if d := MaxDiff(b, x); d > 1e-10 {
		t.Fatalf("TrsmLLUnit residual %g", d)
	}
}

func TestTrsmRUSolves(t *testing.T) {
	const n, m = 21, 15
	fac := diagDominant(n, 41)
	if err := Getrf(fac); err != nil {
		t.Fatalf("Getrf: %v", err)
	}
	x := NewMatrix(m, n)
	x.FillRandom(43)
	// B = X·U with U upper non-unit, then solving must recover X.
	b := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += x.At(i, k) * fac.At(k, j)
			}
			b.Set(i, j, s)
		}
	}
	if err := TrsmRU(fac, b); err != nil {
		t.Fatalf("TrsmRU: %v", err)
	}
	if d := MaxDiff(b, x); d > 1e-10 {
		t.Fatalf("TrsmRU residual %g", d)
	}
}

func TestGemmSubMatchesNaive(t *testing.T) {
	const m, k, n = 17, 23, 11
	a := NewMatrix(m, k)
	a.FillRandom(51)
	b := NewMatrix(k, n)
	b.FillRandom(52)
	c := NewMatrix(m, n)
	c.FillRandom(53)
	want := c.Clone()
	if err := GemmSub(a, b, c); err != nil {
		t.Fatalf("GemmSub: %v", err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := want.At(i, j)
			for p := 0; p < k; p++ {
				s -= a.At(i, p) * b.At(p, j)
			}
			if d := math.Abs(c.At(i, j) - s); d > 1e-12 {
				t.Fatalf("GemmSub[%d][%d] off by %g", i, j, d)
			}
		}
	}
}

func TestFactorShapeErrors(t *testing.T) {
	bad := []error{
		TrsmRLT(NewMatrix(3, 3), NewMatrix(2, 4)),
		SyrkNT(NewMatrix(3, 2), NewMatrix(4, 4)),
		GemmNT(NewMatrix(3, 2), NewMatrix(3, 3), NewMatrix(3, 3)),
		TrsmLLUnit(NewMatrix(3, 3), NewMatrix(2, 3)),
		TrsmRU(NewMatrix(3, 3), NewMatrix(3, 2)),
		GemmSub(NewMatrix(3, 2), NewMatrix(3, 3), NewMatrix(3, 3)),
	}
	for i, err := range bad {
		if err == nil {
			t.Fatalf("case %d: shape mismatch accepted", i)
		}
	}
}

// carve lays tiles of the given shapes side by side in parent, leaving the
// bottom row and everything below a shorter tile as guard cells: operands
// and results are strided views of one parent with no gap between them, so
// a kernel that strays past an extent lands in a neighbour or a guard.
func carve(parent *Matrix, shapes [][2]int) []*Matrix {
	tiles, col := make([]*Matrix, len(shapes)), 0
	for i, sh := range shapes {
		tiles[i] = parent.Sub(0, col, sh[0], sh[1])
		col += sh[1]
	}
	return tiles
}

// carveParent allocates the parent carve needs, every cell set to poison.
func carveParent(shapes [][2]int, poison float64) *Matrix {
	rows, cols := 0, 0
	for _, sh := range shapes {
		rows, cols = max(rows, sh[0]), cols+sh[1]
	}
	parent := NewMatrix(rows+1, cols)
	for i := range parent.Data {
		parent.Data[i] = poison
	}
	return parent
}

// fillWhere copies src into dst where keep(i, j) holds and leaves dst (the
// poison) elsewhere.
func fillWhere(dst, src *Matrix, keep func(i, j int) bool) {
	for i := 0; i < src.Rows; i++ {
		for j := 0; j < src.Cols; j++ {
			if keep(i, j) {
				dst.Set(i, j, src.At(i, j))
			}
		}
	}
}

func all(i, j int) bool         { return true }
func lower(i, j int) bool       { return j <= i }
func strictLower(i, j int) bool { return j < i }
func upper(i, j int) bool       { return j >= i }

func randomMatrix(rows, cols int, seed int64) *Matrix {
	m := NewMatrix(rows, cols)
	m.FillRandom(seed)
	return m
}

// sameBitsOrWithin reports the first cell where got and want neither hold
// the same bits (how an untouched poison or guard cell passes) nor differ by
// at most tol.
func sameBitsOrWithin(got, want *Matrix, tol float64) (i, j int, ok bool) {
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) && !(math.Abs(g-w) <= tol) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// factorCase is one kernel under test: the tile shapes for triangle order n
// and free extents m and k, how the tiles are filled, the kernel and its
// oracle.
type factorCase struct {
	name   string
	shapes func(n, m, k int) [][2]int
	fill   func(t []*Matrix, seed int64)
	kernel func(t []*Matrix) error
	oracle func(t []*Matrix)
}

// factoredSPD and factoredDD are well-conditioned triangular operands: the
// oracle's factors of a diagonally dominant matrix.
func factoredSPD(n int, seed int64) *Matrix {
	a := symDiagDominant(n, seed)
	potrfNaive(a)
	return a
}

func factoredDD(n int, seed int64) *Matrix {
	a := diagDominant(n, seed)
	getrfNaive(a)
	return a
}

var factorCases = []factorCase{
	{"Potrf",
		func(n, m, k int) [][2]int { return [][2]int{{n, n}} },
		func(t []*Matrix, seed int64) { fillWhere(t[0], symDiagDominant(t[0].Rows, seed), lower) },
		func(t []*Matrix) error { return Potrf(t[0]) },
		func(t []*Matrix) { potrfNaive(t[0]) }},
	{"TrsmRLT",
		func(n, m, k int) [][2]int { return [][2]int{{n, n}, {m, n}} },
		func(t []*Matrix, seed int64) {
			fillWhere(t[0], factoredSPD(t[0].Rows, seed), lower)
			fillWhere(t[1], randomMatrix(t[1].Rows, t[1].Cols, seed+1), all)
		},
		func(t []*Matrix) error { return TrsmRLT(t[0], t[1]) },
		func(t []*Matrix) { trsmRLTNaive(t[0], t[1]) }},
	{"SyrkNT",
		func(n, m, k int) [][2]int { return [][2]int{{n, k}, {n, n}} },
		func(t []*Matrix, seed int64) {
			fillWhere(t[0], randomMatrix(t[0].Rows, t[0].Cols, seed), all)
			fillWhere(t[1], randomMatrix(t[1].Rows, t[1].Cols, seed+1), lower)
		},
		func(t []*Matrix) error { return SyrkNT(t[0], t[1]) },
		func(t []*Matrix) { syrkNTNaive(t[0], t[1]) }},
	{"GemmNT",
		func(n, m, k int) [][2]int { return [][2]int{{m, k}, {n, k}, {m, n}} },
		func(t []*Matrix, seed int64) {
			for i := range t {
				fillWhere(t[i], randomMatrix(t[i].Rows, t[i].Cols, seed+int64(i)), all)
			}
		},
		func(t []*Matrix) error { return GemmNT(t[0], t[1], t[2]) },
		func(t []*Matrix) { gemmNTNaive(t[0], t[1], t[2]) }},
	{"Getrf",
		func(n, m, k int) [][2]int { return [][2]int{{n, n}} },
		func(t []*Matrix, seed int64) { fillWhere(t[0], diagDominant(t[0].Rows, seed), all) },
		func(t []*Matrix) error { return Getrf(t[0]) },
		func(t []*Matrix) { getrfNaive(t[0]) }},
	{"TrsmLLUnit",
		func(n, m, k int) [][2]int { return [][2]int{{n, n}, {n, m}} },
		func(t []*Matrix, seed int64) {
			fillWhere(t[0], factoredDD(t[0].Rows, seed), strictLower)
			fillWhere(t[1], randomMatrix(t[1].Rows, t[1].Cols, seed+1), all)
		},
		func(t []*Matrix) error { return TrsmLLUnit(t[0], t[1]) },
		func(t []*Matrix) { trsmLLUnitNaive(t[0], t[1]) }},
	{"TrsmRU",
		func(n, m, k int) [][2]int { return [][2]int{{n, n}, {m, n}} },
		func(t []*Matrix, seed int64) {
			fillWhere(t[0], factoredDD(t[0].Rows, seed), upper)
			fillWhere(t[1], randomMatrix(t[1].Rows, t[1].Cols, seed+1), all)
		},
		func(t []*Matrix) error { return TrsmRU(t[0], t[1]) },
		func(t []*Matrix) { trsmRUNaive(t[0], t[1]) }},
	{"GemmSub",
		func(n, m, k int) [][2]int { return [][2]int{{m, k}, {k, n}, {m, n}} },
		func(t []*Matrix, seed int64) {
			for i := range t {
				fillWhere(t[i], randomMatrix(t[i].Rows, t[i].Cols, seed+int64(i)), all)
			}
		},
		func(t []*Matrix) error { return GemmSub(t[0], t[1], t[2]) },
		func(t []*Matrix) { gemmSubNaive(t[0], t[1], t[2]) }},
}

// TestFactorKernelsAgreeWithNaive runs all eight kernels against the naive
// oracles on extents that are multiples of neither the micro-tile nor
// factorBase, as adjacent strided views of one parent. Every cell the kernel
// has no business with — the unused triangle of a triangular operand, the
// strictly-upper triangle of a SyrkNT/Potrf result, the guard cells — holds a
// poison, once NaN (a read of it spreads into the result) and once a finite
// sentinel (a write over it shows), and the whole parent must come back equal
// to the oracle's: poison bit for bit, results to 1e-11·n. A second run on
// the same input must give the same bits.
func TestFactorKernelsAgreeWithNaive(t *testing.T) {
	sizes := []int{1, 3, 31, 33, 100, 129, 257}
	for _, fc := range factorCases {
		for si, n := range sizes {
			m, k := sizes[(si+3)%len(sizes)], sizes[(si+5)%len(sizes)]
			for _, poison := range []float64{math.NaN(), 1e30} {
				shapes := fc.shapes(n, m, k)
				seed := int64(1000*si + 7)
				build := func() (*Matrix, []*Matrix) {
					parent := carveParent(shapes, poison)
					tiles := carve(parent, shapes)
					fc.fill(tiles, seed)
					return parent, tiles
				}
				want, wantTiles := build()
				fc.oracle(wantTiles)
				got, gotTiles := build()
				if err := fc.kernel(gotTiles); err != nil {
					t.Fatalf("%s n=%d m=%d k=%d: %v", fc.name, n, m, k, err)
				}
				tol := 1e-11 * float64(max(n, m, k))
				if i, j, ok := sameBitsOrWithin(got, want, tol); !ok {
					t.Fatalf("%s n=%d m=%d k=%d poison=%g: parent cell (%d,%d) = %g, oracle %g",
						fc.name, n, m, k, poison, i, j, got.At(i, j), want.At(i, j))
				}
				again, againTiles := build()
				if err := fc.kernel(againTiles); err != nil {
					t.Fatal(err)
				}
				if i, j, ok := sameBitsOrWithin(again, got, -1); !ok {
					t.Fatalf("%s n=%d: second run differs at (%d,%d): %g then %g",
						fc.name, n, i, j, got.At(i, j), again.At(i, j))
				}
			}
		}
	}
}

// TestFactorKernelsZeroExtents: every kernel is a no-op, not a panic, when
// an extent is zero — blocked callers produce such trailing views, here taken
// with Sub at the far corner of a parent, where a zero-height view starts one
// row past the end of the data.
func TestFactorKernelsZeroExtents(t *testing.T) {
	for _, fc := range factorCases {
		for _, e := range [][3]int{{0, 5, 5}, {5, 0, 5}, {5, 5, 0}, {0, 0, 0}} {
			shapes := fc.shapes(e[0], e[1], e[2])
			parent := NewMatrix(8, 8)
			parent.FillRandom(1)
			before := parent.Clone()
			tiles := make([]*Matrix, len(shapes))
			zero := false
			for i, sh := range shapes {
				tiles[i] = parent.Sub(8-sh[0], 8-sh[1], sh[0], sh[1])
				zero = zero || sh[0] == 0 || sh[1] == 0
			}
			if !zero {
				continue // this kernel has no operand with that extent
			}
			if err := fc.kernel(tiles); err != nil {
				t.Fatalf("%s %v: %v", fc.name, e, err)
			}
			// Either the result itself is empty or the product has no terms.
			if d := MaxDiff(parent, before); d != 0 {
				t.Fatalf("%s %v: changed the parent by %g", fc.name, e, d)
			}
		}
	}
}

// TestFactorErrorsCarryGlobalIndex: a bad pivot found inside a recursive
// block is reported with its index in the caller's matrix.
func TestFactorErrorsCarryGlobalIndex(t *testing.T) {
	const n, bad = 200, 150
	for _, v := range []float64{-1, math.NaN()} {
		a := symDiagDominant(n, 3)
		a.Set(bad, bad, v)
		err := Potrf(a)
		if err == nil || !strings.Contains(err.Error(), "pivot 150 ") {
			t.Fatalf("Potrf with a[150][150]=%g: %v, want pivot 150", v, err)
		}
	}
	for _, v := range []float64{0, math.NaN()} {
		a := diagDominant(n, 4)
		for j := 0; j < n; j++ {
			a.Set(bad, j, 0) // a zero row makes pivot 150 exactly zero
		}
		a.Set(bad, bad, v)
		err := Getrf(a)
		if err == nil || !strings.Contains(err.Error(), "pivot at 150 ") {
			t.Fatalf("Getrf with row 150 zero and a[150][150]=%g: %v, want pivot at 150", v, err)
		}
	}
	tri := factoredDD(n, 5)
	tri.Set(bad, bad, 0)
	if err := TrsmRU(tri, NewMatrix(3, n)); err == nil || !strings.HasSuffix(err.Error(), "at 150") {
		t.Fatalf("TrsmRU zero diagonal: %v", err)
	}
	if err := TrsmRLT(tri, NewMatrix(3, n)); err == nil || !strings.HasSuffix(err.Error(), "at 150") {
		t.Fatalf("TrsmRLT zero diagonal: %v", err)
	}
}

// TestFactorKernelsDoNotAllocate: at the benchmark's tile size, on strided
// views, a warmed-up kernel call allocates nothing — pack buffers and the
// micro-tile accumulator come from packPool, internal views are values.
func TestFactorKernelsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	const n = 128
	for _, fc := range factorCases {
		shapes := fc.shapes(n, n, n)
		parent := carveParent(shapes, 0)
		tiles := carve(parent, shapes)
		fc.fill(tiles, 9)
		fresh := parent.Clone()
		run := func() {
			copy(parent.Data, fresh.Data) // a factored tile is not the input of the next call
			if err := fc.kernel(tiles); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s allocates %.0f objects per call at tile %d, want 0", fc.name, allocs, n)
		}
	}
}
