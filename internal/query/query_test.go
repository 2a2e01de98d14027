package query

import (
	"fmt"
	"reflect"
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
	steps := sel.Steps()
	if len(steps) != 1 || !steps[0].Descend || steps[0].Class != "Worker" {
		t.Fatalf("Steps = %+v", steps)
	}
	if got := steps[0].Preds[0].Op.String(); got != "=" {
		t.Fatalf("Op.String() = %q", got)
	}
	if (&Selector{}).Steps() != nil {
		t.Fatal("empty selector Steps should be nil")
	}
}

func TestFluentAPI(t *testing.T) {
	pl := fixture(t)
	q := New(pl)
	if got := q.Workers().WithArch("gpu").Count(); got != 2 {
		t.Fatalf("gpu workers = %d", got)
	}
	if got := q.Masters().TotalUnits(); got != 8 {
		t.Fatalf("master units = %d", got)
	}
	if got := q.Hybrids().IDs(); !reflect.DeepEqual(got, []string{"ppe"}) {
		t.Fatalf("hybrids = %v", got)
	}
	if got := q.InGroup("gpuset").IDs(); !reflect.DeepEqual(got, []string{"gpu0", "gpu1"}) {
		t.Fatalf("gpuset = %v", got)
	}
	if got := q.WithProp(core.PropComputeUnits).Count(); got != 2 {
		t.Fatalf("WithProp = %d", got)
	}
	if got := q.WithPropValue(core.PropComputeUnits, "30").First(); got == nil || got.ID != "gpu1" {
		t.Fatalf("WithPropValue First = %v", got)
	}
	if got := New(pl).Workers().WithArch("none").First(); got != nil {
		t.Fatalf("First on empty set = %v", got)
	}
}

func TestControlledBy(t *testing.T) {
	pl := fixture(t)
	got := New(pl).ControlledBy("ppe").IDs()
	if !reflect.DeepEqual(got, []string{"spe0", "spe1"}) {
		t.Fatalf("ControlledBy(ppe) = %v", got)
	}
	all := New(pl).ControlledBy("cpu").IDs()
	if !reflect.DeepEqual(all, []string{"gpu0", "gpu1", "ppe", "spe0", "spe1"}) {
		t.Fatalf("ControlledBy(cpu) = %v", all)
	}
	if n := New(pl).ControlledBy("ghost").Count(); n != 0 {
		t.Fatalf("ControlledBy(ghost) = %d", n)
	}
}

func TestQSelectComposition(t *testing.T) {
	pl := fixture(t)
	q, err := New(pl).InGroup("gpuset").Select("//Worker[MAX_COMPUTE_UNITS>=20]")
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

// Regression: every terminal (All, IDs, First) must materialise in document
// order — the order Platform.Walk visits — no matter how the set was built
// or how map-iteration scrambled it along the way. The registry caches
// compiled results keyed on the filter expression, so a nondeterministic
// order would poison the cache with an arbitrary permutation.
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
	// Selector evaluation goes through map-keyed union/dedup internally;
	// results must still come back in document order, repeatably.
	for i := 0; i < 20; i++ {
		got, err := q.Select("//Worker, //Hybrid, /Master")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.IDs(), walkOrder) {
			t.Fatalf("iteration %d: %v; want %v", i, got.IDs(), walkOrder)
		}
	}
	// Filters preserve relative document order too.
	workers := q.Workers()
	if !reflect.DeepEqual(workers.IDs(), []string{"gpu0", "gpu1", "spe0", "spe1"}) {
		t.Fatalf("workers = %v", workers.IDs())
	}
	if workers.First().ID != "gpu0" {
		t.Fatalf("First = %v", workers.First())
	}
	if workers.Head(2).Count() != 2 {
		t.Fatalf("Head(2).Count = %d", workers.Head(2).Count())
	}
}

// Two goroutines chain filters over one shared Q root: derivation must not
// mutate shared state, so the registry can hand the same compiled root to
// every concurrent HTTP request. Run under -race via the Makefile race
// subset.
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
	go reader(func() []string {
		return root.Workers().WithArch("gpu").IDs()
	}, []string{"gpu0", "gpu1"})
	go reader(func() []string {
		q, err := root.InGroup("gpuset").Select("//*[MAX_COMPUTE_UNITS>=15]")
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
