package blas

import (
	"math"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func randomGEMM(t testing.TB, m, n, k int, seed int64) (a, b, c *Matrix) {
	t.Helper()
	a, b, c = NewMatrix(m, k), NewMatrix(k, n), NewMatrix(m, n)
	a.FillRandom(seed)
	b.FillRandom(seed + 1)
	return a, b, c
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(1, 2, 42)
	if m.At(1, 2) != 42 {
		t.Fatal("Set/At broken")
	}
	cp := m.Clone()
	cp.Set(1, 2, 7)
	if m.At(1, 2) != 42 {
		t.Fatal("Clone shares storage")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero broken")
	}
	m.FillIdentity()
	if m.At(0, 0) != 1 || m.At(2, 2) != 1 || m.At(0, 1) != 0 {
		t.Fatal("FillIdentity broken")
	}
}

func TestSubView(t *testing.T) {
	m := NewMatrix(4, 4)
	m.FillRandom(1)
	sub := m.Sub(1, 1, 2, 2)
	if sub.At(0, 0) != m.At(1, 1) || sub.At(1, 1) != m.At(2, 2) {
		t.Fatal("Sub view misaligned")
	}
	sub.Set(0, 0, 99)
	if m.At(1, 1) != 99 {
		t.Fatal("Sub view should share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Sub should panic")
		}
	}()
	m.Sub(3, 3, 2, 2)
}

// TestSubEmptyViewsOnEveryEdge: a zero-height or zero-width view is legal
// wherever its corner is in range, including the far edges where the corner
// lies past the last element, and every method is a no-op on it.
func TestSubEmptyViewsOnEveryEdge(t *testing.T) {
	parent := NewMatrix(4, 6)
	inner := parent.Sub(1, 1, 3, 5) // a view whose Data ends exactly at its last element
	for _, m := range []*Matrix{parent, inner} {
		for _, e := range []struct {
			name             string
			i, j, rows, cols int
		}{
			{"top", 0, 1, 0, 2},
			{"left", 1, 0, 2, 0},
			{"bottom", m.Rows, 1, 0, m.Cols - 1},
			{"bottom corner", m.Rows, m.Cols, 0, 0},
			{"right", 1, m.Cols, m.Rows - 1, 0},
			{"right, last row", m.Rows - 1, m.Cols, 1, 0},
			{"interior", 2, 2, 0, 0},
		} {
			v := m.Sub(e.i, e.j, e.rows, e.cols)
			if v.Rows != e.rows || v.Cols != e.cols || v.Stride != m.Stride {
				t.Fatalf("%s: got %dx%d stride %d", e.name, v.Rows, v.Cols, v.Stride)
			}
			v.Zero()
			v.FillRandom(1)
			v.FillIdentity()
			if c := v.Clone(); c.Rows != e.rows || c.Cols != e.cols {
				t.Fatalf("%s: Clone is %dx%d", e.name, c.Rows, c.Cols)
			}
			if !Equal(v, v, 0) || MaxDiff(v, v) != 0 {
				t.Fatalf("%s: empty view differs from itself", e.name)
			}
			if w := v.Sub(0, 0, e.rows, e.cols); w.Rows != e.rows || w.Cols != e.cols {
				t.Fatalf("%s: Sub of the empty view is %dx%d", e.name, w.Rows, w.Cols)
			}
		}
	}
	for i := range parent.Data {
		if parent.Data[i] != 0 {
			t.Fatalf("a method on an empty view wrote parent.Data[%d]", i)
		}
	}
}

// TestEqualAndMaxDiffSeeNaN: every `diff > tol` verification in the repo
// goes through MaxDiff, and NaN compares false with everything — an all-NaN
// result used to report diff 0.
func TestEqualAndMaxDiffSeeNaN(t *testing.T) {
	ref := NewMatrix(8, 8)
	ref.FillRandom(1)
	for _, poison := range []func(m *Matrix){
		func(m *Matrix) { m.Sub(2, 2, 4, 4).Set(1, 3, math.NaN()) },
		func(m *Matrix) { m.Set(7, 7, math.NaN()) },
		func(m *Matrix) {
			for i := range m.Data {
				m.Data[i] = math.NaN()
			}
		},
	} {
		bad := ref.Clone()
		poison(bad)
		for _, pair := range [][2]*Matrix{{ref, bad}, {bad, ref}, {bad, bad}} {
			if d := MaxDiff(pair[0], pair[1]); !math.IsInf(d, 1) {
				t.Fatalf("MaxDiff over a NaN-poisoned tile = %g, want +Inf", d)
			}
			if Equal(pair[0], pair[1], math.Inf(1)) {
				t.Fatal("Equal accepted a NaN-poisoned tile")
			}
		}
	}
	if d := MaxDiff(ref, ref.Clone()); d != 0 {
		t.Fatalf("MaxDiff of a clone = %g", d)
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(-1, 2) should panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestGemmIdentity(t *testing.T) {
	a := NewMatrix(5, 5)
	a.FillRandom(3)
	id := NewMatrix(5, 5)
	id.FillIdentity()
	c := NewMatrix(5, 5)
	if err := GemmNaive(a, id, c); err != nil {
		t.Fatal(err)
	}
	if !Equal(a, c, tol) {
		t.Fatalf("A*I != A (maxdiff %g)", MaxDiff(a, c))
	}
}

func TestGemmKnownValues(t *testing.T) {
	// [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
	a, b, c := NewMatrix(2, 2), NewMatrix(2, 2), NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	copy(b.Data, []float64{5, 6, 7, 8})
	if err := GemmNaive(a, b, c); err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c = %v; want %v", c.Data, want)
		}
	}
}

func TestGemmAccumulates(t *testing.T) {
	a, b, c := randomGEMM(t, 3, 3, 3, 7)
	c.FillIdentity()
	ref := c.Clone()
	if err := GemmNaive(a, b, c); err != nil {
		t.Fatal(err)
	}
	if err := GemmNaive(a, b, ref); err != nil {
		t.Fatal(err)
	}
	if !Equal(c, ref, tol) {
		t.Fatal("accumulation not deterministic")
	}
	// C += A*B means starting from identity differs from starting from zero.
	zero := NewMatrix(3, 3)
	if err := GemmNaive(a, b, zero); err != nil {
		t.Fatal(err)
	}
	if Equal(c, zero, tol) {
		t.Fatal("GemmNaive overwrote instead of accumulating")
	}
}

func TestGemmVariantsAgree(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {2, 3, 4}, {17, 19, 23}, {64, 64, 64}, {65, 63, 67}, {100, 1, 50},
	}
	for _, s := range shapes {
		a, b, ref := randomGEMM(t, s.m, s.n, s.k, 42)
		if err := GemmNaive(a, b, ref); err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]func(a, b, c *Matrix) error{
			"blocked":      func(a, b, c *Matrix) error { return GemmBlocked(a, b, c, 16) },
			"blockedDflt":  func(a, b, c *Matrix) error { return GemmBlocked(a, b, c, 0) },
			"parallel":     func(a, b, c *Matrix) error { return GemmPackedParallel(a, b, c, 16, 4) },
			"parallelAuto": func(a, b, c *Matrix) error { return GemmPackedParallel(a, b, c, 16, 0) },
			"parallel1":    func(a, b, c *Matrix) error { return GemmPackedParallel(a, b, c, 16, 1) },
		} {
			c := NewMatrix(s.m, s.n)
			if err := run(a, b, c); err != nil {
				t.Fatalf("%s %+v: %v", name, s, err)
			}
			if d := MaxDiff(ref, c); d > 1e-8 {
				t.Fatalf("%s %+v: maxdiff %g", name, s, d)
			}
		}
	}
}

func TestGemmShapeErrors(t *testing.T) {
	a, b, c := NewMatrix(2, 3), NewMatrix(4, 2), NewMatrix(2, 2)
	if err := GemmNaive(a, b, c); err == nil {
		t.Fatal("inner dim mismatch must fail")
	}
	b2 := NewMatrix(3, 2)
	cBad := NewMatrix(3, 2)
	if err := GemmNaive(a, b2, cBad); err == nil {
		t.Fatal("output shape mismatch must fail")
	}
	if err := GemmBlocked(a, b, c, 8); err == nil {
		t.Fatal("blocked must validate shapes")
	}
	if err := GemmPackedParallel(a, b, c, 8, 2); err == nil {
		t.Fatal("parallel must validate shapes")
	}
}

func TestVecAdd(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	if err := VecAdd(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0] != 11 || a[2] != 33 {
		t.Fatalf("a = %v", a)
	}
	if err := VecAdd(a, []float64{1}); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestEqualAndMaxDiffShapeMismatch(t *testing.T) {
	if Equal(NewMatrix(2, 2), NewMatrix(2, 3), tol) {
		t.Fatal("shape mismatch should not be Equal")
	}
	if !math.IsInf(MaxDiff(NewMatrix(2, 2), NewMatrix(3, 2)), 1) {
		t.Fatal("MaxDiff on shape mismatch should be +Inf")
	}
}

func TestFlopsGEMM(t *testing.T) {
	if got := FlopsGEMM(10, 20, 30); got != 12000 {
		t.Fatalf("FlopsGEMM = %g", got)
	}
}

// Property-based: naive and blocked agree bit for bit on random shapes.
func TestQuickGemmBlockedAgreesWithNaive(t *testing.T) {
	f := func(mm, nn, kk, bb uint8, seed int64) bool {
		m, n, k := int(mm%24)+1, int(nn%24)+1, int(kk%24)+1
		block := int(bb%8) + 1
		a, b, ref := NewMatrix(m, k), NewMatrix(k, n), NewMatrix(m, n)
		a.FillRandom(seed)
		b.FillRandom(seed + 1)
		if GemmNaive(a, b, ref) != nil {
			return false
		}
		c := NewMatrix(m, n)
		if GemmBlocked(a, b, c, block) != nil {
			return false
		}
		// Blocking reorders the loops, never an element's sum: the bits match.
		for i, v := range ref.Data {
			if math.Float64bits(c.Data[i]) != math.Float64bits(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
