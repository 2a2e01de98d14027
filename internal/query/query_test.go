package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// fixture: cpu Master (8x) controlling gpu0/gpu1 workers and a Cell-like
// hybrid with two SPEs.
func fixture(t testing.TB) *core.Platform {
	t.Helper()
	pl, err := core.NewBuilder("mixed").
		Master("cpu", core.Arch("x86"), core.Qty(8),
			core.WithProp(core.PropCores, "8"), core.InGroups("cpuset")).
		Worker("gpu0", core.Arch("gpu"), core.WithProp(core.PropComputeUnits, "15"), core.InGroups("gpuset")).
		Worker("gpu1", core.Arch("gpu"), core.WithProp(core.PropComputeUnits, "30"), core.InGroups("gpuset")).
		Hybrid("ppe", core.Arch("ppc")).
		Worker("spe0", core.Arch("spe")).
		Worker("spe1", core.Arch("spe")).
		End().
		Link(core.ICTypePCIe, "cpu", "gpu0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func ids(pus []*core.PU) []string {
	out := make([]string, len(pus))
	for i, p := range pus {
		out[i] = p.ID
	}
	return out
}

func TestSelectorBasics(t *testing.T) {
	pl := fixture(t)
	cases := []struct {
		sel  string
		want []string
	}{
		{"//Worker", []string{"gpu0", "gpu1", "spe0", "spe1"}},
		{"//Worker[ARCHITECTURE=gpu]", []string{"gpu0", "gpu1"}},
		{"//Worker[ARCHITECTURE=spe]", []string{"spe0", "spe1"}},
		{"/Master", []string{"cpu"}},
		{"/Master/Worker", []string{"gpu0", "gpu1"}},
		{"/Master/Hybrid/Worker", []string{"spe0", "spe1"}},
		{"//Hybrid/Worker", []string{"spe0", "spe1"}},
		{"//*[group=gpuset]", []string{"gpu0", "gpu1"}},
		{"//*[group!=gpuset]", []string{"cpu", "ppe", "spe0", "spe1"}},
		{"//Worker[MAX_COMPUTE_UNITS>=15]", []string{"gpu0", "gpu1"}},
		{"//Worker[MAX_COMPUTE_UNITS>15]", []string{"gpu1"}},
		{"//Worker[MAX_COMPUTE_UNITS<30]", []string{"gpu0"}},
		{"//Worker[MAX_COMPUTE_UNITS!=15]", []string{"gpu1"}},
		{"//*[@id=gpu0]", []string{"gpu0"}},
		{"//*[@class=Hybrid]", []string{"ppe"}},
		{"//*[@quantity=8]", []string{"cpu"}},
		{"//Worker[MAX_COMPUTE_UNITS]", []string{"gpu0", "gpu1"}},
		{"//Worker[NO_SUCH_PROP]", nil},
		{"//Master", []string{"cpu"}},
		{"//Worker[ARCHITECTURE='gpu']", []string{"gpu0", "gpu1"}},
		{`//Worker[ARCHITECTURE="gpu"]`, []string{"gpu0", "gpu1"}},
		{"//Worker[ARCHITECTURE=gpu][MAX_COMPUTE_UNITS=30]", []string{"gpu1"}},
		{"/Worker", nil}, // no top-level workers
		// Union selectors.
		{"//Master, //Worker[ARCHITECTURE=gpu]", []string{"cpu", "gpu0", "gpu1"}},
		{"//Hybrid, //Hybrid", []string{"ppe"}}, // dedup
		{"//Worker[MAX_COMPUTE_UNITS=15], //Worker[MAX_COMPUTE_UNITS=30]", []string{"gpu0", "gpu1"}},
		{"//Hybrid", []string{"ppe"}},
		{"//*[MAX_COMPUTE_UNITS]", []string{"gpu0", "gpu1"}},
		{"//*[MAX_COMPUTE_UNITS=30.0]", []string{"gpu1"}},
		// Everything a unit controls, directly or not.
		{"//*[@id=ppe]//*", []string{"spe0", "spe1"}},
		{"//*[@id=cpu]//*", []string{"gpu0", "gpu1", "ppe", "spe0", "spe1"}},
		{"//*[@id=ghost]//*", nil},
		{"/Master//Worker", []string{"gpu0", "gpu1", "spe0", "spe1"}},
		{"//Master/*", []string{"gpu0", "gpu1", "ppe"}},
		// A ',' or ']' inside a quoted value neither ends the path nor
		// closes the predicate.
		{"//*[@name=']'], //Hybrid", []string{"ppe"}},
		{"//*[ARCHITECTURE='g,pu'], //Master", []string{"cpu"}},
	}
	for _, c := range cases {
		t.Run(c.sel, func(t *testing.T) {
			got, err := Select(pl, c.sel)
			if err != nil {
				t.Fatalf("Select(%q): %v", c.sel, err)
			}
			if !reflect.DeepEqual(ids(got), c.want) && !(len(got) == 0 && len(c.want) == 0) {
				t.Fatalf("Select(%q) = %v; want %v", c.sel, ids(got), c.want)
			}
		})
	}
}

func TestSelectorParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Worker",
		"//",
		"//Gizmo",
		"//Worker[",
		"//Worker[]",
		"//Worker[X='unterminated]",
		"//Worker[X~1]",
		"//Worker[X=1",
		"//Worker[@]",
		"//Worker,",       // empty union branch
		",//Worker",       // empty union branch
		"//Worker, Gizmo", // bad second branch
		"//Worker,,//Master",
	}
	for _, s := range bad {
		if _, err := ParseSelector(s); err == nil {
			t.Errorf("ParseSelector(%q) should fail", s)
		}
	}
}

func TestSelectorStringRoundInfo(t *testing.T) {
	sel, err := ParseSelector("//Worker[ARCHITECTURE=gpu]")
	if err != nil {
		t.Fatal(err)
	}
	if sel.String() != "//Worker[ARCHITECTURE=gpu]" {
		t.Fatalf("String() = %q", sel.String())
	}
	steps := sel.Paths[0]
	if len(sel.Paths) != 1 || len(steps) != 1 || !steps[0].Descend || steps[0].Class != "Worker" {
		t.Fatalf("Paths = %+v", sel.Paths)
	}
	if got := steps[0].Preds[0].Op.String(); got != "=" {
		t.Fatalf("Op.String() = %q", got)
	}
}

func TestQSelectComposition(t *testing.T) {
	pl := fixture(t)
	gpuset, err := New(pl).Select("//*[group=gpuset]")
	if err != nil {
		t.Fatal(err)
	}
	q, err := gpuset.Select("//Worker[MAX_COMPUTE_UNITS>=20]")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.IDs(); !reflect.DeepEqual(got, []string{"gpu1"}) {
		t.Fatalf("composed = %v", got)
	}
	if _, err := New(pl).Select("///"); err == nil {
		t.Fatal("bad selector must propagate error")
	}
}

func TestMustSelectPanics(t *testing.T) {
	pl := fixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustSelect with bad selector should panic")
		}
	}()
	MustSelect(pl, "///bad")
}

func TestCompareStringFallback(t *testing.T) {
	pl, err := core.NewBuilder("s").
		Master("m", core.WithProp("LABEL", "alpha")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := MustSelect(pl, "//*[LABEL>aaa]")
	if len(got) != 1 {
		t.Fatalf("string compare: %v", ids(got))
	}
	if got := MustSelect(pl, "//*[LABEL<aaa]"); len(got) != 0 {
		t.Fatalf("string compare lt: %v", ids(got))
	}
}

// Property-based: //* matches exactly the full PU set for arbitrary
// generated hierarchies, and //Worker ∪ //Hybrid ∪ //Master is a partition.
func TestQuickSelectorPartition(t *testing.T) {
	f := func(w, h uint8) bool {
		b := core.NewBuilder("q").Master("m", core.Arch("x86"))
		for i := 0; i < int(h%3); i++ {
			b.Hybrid("", core.Arch("ppc"))
			b.Worker("", core.Arch("spe"))
			b.End()
		}
		for i := 0; i < int(w%4); i++ {
			b.Worker("", core.Arch("gpu"))
		}
		pl, err := b.Build()
		if err != nil {
			return false
		}
		all := MustSelect(pl, "//*")
		if len(all) != len(pl.AllPUs()) {
			return false
		}
		n := len(MustSelect(pl, "//Master")) + len(MustSelect(pl, "//Hybrid")) + len(MustSelect(pl, "//Worker"))
		return n == len(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Regression: every terminal (All, IDs) must materialise in document
// order — the order Platform.Walk visits — no matter how the set was built.
// The registry caches query results keyed on the filter expression, so a
// nondeterministic order would poison the cache with an arbitrary
// permutation.
func TestWalkOrderingStable(t *testing.T) {
	pl := fixture(t)
	var walkOrder []string
	pl.Walk(func(pu, _ *core.PU) bool {
		walkOrder = append(walkOrder, pu.ID)
		return true
	})
	if !reflect.DeepEqual(walkOrder, []string{"cpu", "gpu0", "gpu1", "ppe", "spe0", "spe1"}) {
		t.Fatalf("walk order changed: %v", walkOrder)
	}
	q := New(pl)
	if !reflect.DeepEqual(q.IDs(), walkOrder) {
		t.Fatalf("New(pl).IDs() = %v; want walk order %v", q.IDs(), walkOrder)
	}
	// A union of paths that reach the units in another order still comes
	// back in document order, repeatably.
	for i := 0; i < 20; i++ {
		got, err := q.Select("//Worker, //Hybrid, /Master")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.IDs(), walkOrder) {
			t.Fatalf("iteration %d: %v; want %v", i, got.IDs(), walkOrder)
		}
	}
	// Filters preserve relative document order too, and limit keeps the
	// first units in that order.
	f, err := ParseFilterArgs([]string{"kind=worker", "limit=3"})
	if err != nil {
		t.Fatal(err)
	}
	workers, err := f.Apply(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(workers.All()); !reflect.DeepEqual(got, []string{"gpu0", "gpu1", "spe0"}) {
		t.Fatalf("workers = %v", got)
	}
}

// Two goroutines select over one shared Q root: selection must not mutate
// shared state, so the registry can hand the same root to every concurrent
// HTTP request. Run under -race via the Makefile race subset.
func TestConcurrentReadersShareRoot(t *testing.T) {
	pl := fixture(t)
	root := New(pl)
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	reader := func(chain func() []string, want []string) {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			if got := chain(); !reflect.DeepEqual(got, want) {
				errs <- fmt.Sprintf("got %v; want %v", got, want)
				return
			}
		}
	}
	wg.Add(2)
	filters, err := ParseFilterArgs([]string{"kind=worker", "arch=gpu"})
	if err != nil {
		t.Fatal(err)
	}
	go reader(func() []string {
		q, err := filters.Apply(root)
		if err != nil {
			return []string{err.Error()}
		}
		return q.IDs()
	}, []string{"gpu0", "gpu1"})
	go reader(func() []string {
		q, err := root.Select("//*[group=gpuset][MAX_COMPUTE_UNITS>=15]")
		if err != nil {
			return []string{err.Error()}
		}
		return q.IDs()
	}, []string{"gpu0", "gpu1"})
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// The shared root itself is untouched.
	if root.Count() != 6 {
		t.Fatalf("root mutated: count = %d", root.Count())
	}
}

// naiveSelect is the selector's meaning written the plain way: per path, the
// node set after each step, found by walking the tree from every node of the
// set before it; paths unioned, sorted into Platform.Walk order.
func naiveSelect(pl *core.Platform, sel *Selector) []string {
	union := map[*core.PU]bool{}
	for _, path := range sel.Paths {
		cur := []*core.PU{nil} // nil is the virtual root above the Masters
		for i := range path {
			st := &path[i]
			next := map[*core.PU]bool{}
			for _, node := range cur {
				var cands []*core.PU
				switch {
				case node == nil && st.Descend:
					cands = pl.AllPUs()
				case node == nil:
					cands = pl.Masters
				case st.Descend:
					node.Walk(func(n, _ *core.PU) bool {
						if n != node {
							cands = append(cands, n)
						}
						return true
					})
				default:
					cands = node.Children
				}
				for _, c := range cands {
					if st.matches(c) {
						next[c] = true
					}
				}
			}
			cur = cur[:0]
			for n := range next {
				cur = append(cur, n)
			}
		}
		for _, n := range cur {
			union[n] = true
		}
	}
	var out []string
	pl.Walk(func(pu, _ *core.PU) bool {
		if union[pu] {
			out = append(out, pu.ID)
		}
		return true
	})
	return out
}

// randomPlatform builds one to two Masters over Hybrids nested up to three
// deep (every scope controls one to three units), with properties and groups drawn from small pools so predicates hit.
func randomPlatform(r *rand.Rand) *core.Platform {
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	opts := func() []core.PUOption {
		o := []core.PUOption{core.Arch(pick("gpu", "spe", "x86", "1"))}
		if r.Intn(2) == 0 {
			o = append(o, core.WithProp(core.PropComputeUnits, pick("15", "30", "30.0", "x", "")))
		}
		if r.Intn(2) == 0 {
			o = append(o, core.InGroups(pick("gpuset", "cpuset")))
		}
		return o
	}
	b := core.NewBuilder("r")
	var grow func(depth int)
	grow = func(depth int) {
		for i := 1 + r.Intn(3); i > 0; i-- {
			if depth < 3 && r.Intn(3) == 0 {
				b.Hybrid("", opts()...)
				grow(depth + 1)
				b.End()
			} else {
				b.Worker("", opts()...)
			}
		}
	}
	for m := 1 + r.Intn(2); m > 0; m-- {
		b.Master("", opts()...)
		grow(1)
	}
	return b.MustBuild()
}

// randomSelector draws one to two paths of one to three steps.
func randomSelector(r *rand.Rand) string {
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	var paths []string
	for p := 1 + r.Intn(2); p > 0; p-- {
		var b strings.Builder
		for s := 1 + r.Intn(3); s > 0; s-- {
			b.WriteString(pick("/", "//"))
			b.WriteString(pick("*", "*", "Master", "Hybrid", "Worker"))
			if r.Intn(2) == 0 {
				b.WriteString(pick("[ARCHITECTURE=gpu]", "[ARCHITECTURE!=spe]", "[ARCHITECTURE=1.0]",
					"[MAX_COMPUTE_UNITS]", "[MAX_COMPUTE_UNITS=30]", "[MAX_COMPUTE_UNITS<20]",
					"[MAX_COMPUTE_UNITS>=x]", "[group=gpuset]", "[group!=cpuset]", "[group]", "[@quantity=1]"))
			}
		}
		paths = append(paths, b.String())
	}
	return strings.Join(paths, ", ")
}

// The position-interval evaluator matches the naive tree walk on random
// platforms and selectors.
func TestQuickSelectorMatchesNaiveWalk(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		pl := randomPlatform(r)
		src := randomSelector(r)
		sel, err := ParseSelector(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		got := ids(MustSelect(pl, src))
		want := naiveSelect(pl, sel)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s on %s:\n got %v\nwant %v", src, pl.Summary(), got, want)
		}
	}
}
