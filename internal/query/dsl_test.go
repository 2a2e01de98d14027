package query

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/discover"
)

func TestParseFiltersBasics(t *testing.T) {
	f, err := ParseFilters(map[string][]string{
		"kind":  {"worker"},
		"arch":  {"gpu"},
		"group": {"devset"},
		"prop":  {"VENDOR:Nvidia", "GLOBAL_MEM_SIZE"},
		"limit": {"2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != "Worker" || f.Arch != "gpu" || f.Group != "devset" || f.Limit != 2 {
		t.Fatalf("filters = %+v", f)
	}
	if len(f.Props) != 2 || !f.Props[0].HasValue || f.Props[1].HasValue {
		t.Fatalf("props = %+v", f.Props)
	}
}

func TestParseFiltersKindCanonicalisation(t *testing.T) {
	for _, v := range []string{"worker", "Worker", "WORKER", "wORKER"} {
		f, err := ParseFilters(map[string][]string{"kind": {v}})
		if err != nil {
			t.Fatalf("kind=%q: %v", v, err)
		}
		if f.Kind != "Worker" {
			t.Fatalf("kind=%q parsed to %q", v, f.Kind)
		}
	}
	// Explicit wildcard means no class filter.
	f, err := ParseFilters(map[string][]string{"kind": {"*"}})
	if err != nil || f.Kind != "" {
		t.Fatalf("kind=*: %+v, %v", f, err)
	}
}

// All problems must surface in one pass, deterministically ordered.
func TestParseFiltersReportsAllProblems(t *testing.T) {
	_, err := ParseFilters(map[string][]string{
		"kind":   {"banana"},
		"limit":  {"x"},
		"select": {"//Nope"},
		"bogus":  {"1"},
		"group":  {""},
	})
	if err == nil {
		t.Fatal("want error")
	}
	fe, ok := AsFilterError(err)
	if !ok {
		t.Fatalf("error %T is not *FilterError", err)
	}
	if len(fe.Problems) != 5 {
		t.Fatalf("problems = %v; want all 5", fe.Problems)
	}
	// Sorted by key: bogus, group, kind, limit, select.
	wantPrefixes := []string{"unknown filter key", "group:", "kind:", "limit:", "select:"}
	for i, p := range fe.Problems {
		if !strings.HasPrefix(p, wantPrefixes[i]) {
			t.Fatalf("problem[%d] = %q; want prefix %q (all: %v)", i, p, wantPrefixes[i], fe.Problems)
		}
	}
	if !strings.Contains(fe.Error(), "5 invalid filter(s)") {
		t.Fatalf("Error() = %q", fe.Error())
	}
}

func TestParseFilterArgs(t *testing.T) {
	f, err := ParseFilterArgs([]string{"kind=worker", "prop=VENDOR:Nvidia", "prop=CORES"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != "Worker" || len(f.Props) != 2 {
		t.Fatalf("filters = %+v", f)
	}

	// Malformed args and bad values are all reported together.
	_, err = ParseFilterArgs([]string{"noequals", "kind=banana", "=value", "limit=-1"})
	fe, ok := AsFilterError(err)
	if !ok {
		t.Fatalf("error %T", err)
	}
	if len(fe.Problems) != 4 {
		t.Fatalf("problems = %v; want 4", fe.Problems)
	}
}

// applyCases are the DSL rows over the fixture: TestFiltersApply checks
// them and FuzzFilters starts from them.
var applyCases = []struct {
	args []string
	want []string
}{
	{[]string{"kind=worker"}, []string{"gpu0", "gpu1", "spe0", "spe1"}},
	{[]string{"kind=worker", "arch=gpu"}, []string{"gpu0", "gpu1"}},
	{[]string{"group=gpuset"}, []string{"gpu0", "gpu1"}},
	{[]string{"id=spe0"}, []string{"spe0"}},
	{[]string{"prop=MAX_COMPUTE_UNITS"}, []string{"gpu0", "gpu1"}},
	{[]string{"prop=MAX_COMPUTE_UNITS:30"}, []string{"gpu1"}},
	{[]string{"kind=worker", "limit=2"}, []string{"gpu0", "gpu1"}},
	{[]string{"select=//Worker[ARCHITECTURE=spe]"}, []string{"spe0", "spe1"}},
	{[]string{"kind=worker", "select=//*[group=gpuset]"}, []string{"gpu0", "gpu1"}},
	{[]string{}, []string{"cpu", "gpu0", "gpu1", "ppe", "spe0", "spe1"}},
	{[]string{"kind=hybrid"}, []string{"ppe"}},
	{[]string{"kind=master", "group=cpuset"}, []string{"cpu"}},
	{[]string{"kind=worker", "arch=none"}, []string{}},
	// An empty value is equality with "": units that lack the property
	// do not match it.
	{[]string{"prop=MAX_COMPUTE_UNITS:"}, []string{}},
	// The DSL's = is the selector's: numeric when both sides are numbers.
	{[]string{"prop=MAX_COMPUTE_UNITS:30.0"}, []string{"gpu1"}},
	{[]string{"select=//*[MAX_COMPUTE_UNITS=30.0]"}, []string{"gpu1"}},
	// kind= names the class of the selector's last step; a path whose
	// last step names another class matches nothing.
	{[]string{"kind=hybrid", "select=//Master/Worker"}, []string{}},
	{[]string{"kind=worker", "select=//Master/*, //Hybrid"}, []string{"gpu0", "gpu1"}},
	{[]string{"arch=spe", "select=//*[@id=ppe]//*"}, []string{"spe0", "spe1"}},
	{[]string{"kind=worker", "prop=MAX_COMPUTE_UNITS", "limit=1"}, []string{"gpu0"}},
}

func TestFiltersApply(t *testing.T) {
	q := New(fixture(t))
	for _, c := range applyCases {
		f, err := ParseFilterArgs(c.args)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		got, err := f.Apply(q)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !reflect.DeepEqual(got.IDs(), c.want) {
			t.Fatalf("%v => %v; want %v", c.args, got.IDs(), c.want)
		}
		// Filters built without ParseFilters compile on each Apply, to
		// the same result.
		hand := *f
		hand.sel = nil
		if got, err := hand.Apply(q); err != nil || !reflect.DeepEqual(got.IDs(), c.want) {
			t.Fatalf("%v built by hand => %v, %v; want %v", c.args, got, err, c.want)
		}
	}
	if _, err := (&Filters{Kind: "worker"}).Apply(q); err == nil {
		t.Fatal("a hand-built non-canonical kind must be rejected")
	}
	if _, err := (&Filters{Select: "//Gizmo"}).Apply(q); err == nil {
		t.Fatal("a hand-built bad selector must be rejected")
	}
}

// FuzzFilters feeds a select= expression and &-separated flat arguments to
// ParseFilterArgs. Neither it nor Apply may panic, and whatever it accepts,
// Apply equals the reference: the selector alone, kept where a per-unit check
// through core's accessors holds for every flat key, cut to limit.
func FuzzFilters(f *testing.F) {
	for _, c := range applyCases {
		var sel string
		var flat []string
		for _, a := range c.args {
			if v, ok := strings.CutPrefix(a, "select="); ok {
				sel = v
			} else {
				flat = append(flat, a)
			}
		}
		f.Add(sel, strings.Join(flat, "&"))
	}
	pl := fixture(f)
	root := New(pl)
	f.Fuzz(func(t *testing.T, sel, flat string) {
		var args []string
		if flat != "" {
			args = strings.Split(flat, "&")
		}
		if sel != "" {
			args = append(args, "select="+sel)
		}
		fl, err := ParseFilterArgs(args)
		if err != nil {
			return
		}
		got, err := fl.Apply(root)
		if err != nil {
			t.Fatalf("%q: Apply of accepted filters: %v", args, err)
		}
		if want := referenceApply(pl, fl); !reflect.DeepEqual(got.IDs(), want) {
			t.Fatalf("%q => %v; reference %v", args, got.IDs(), want)
		}
	})
}

// referenceApply is what a filter set means, written without the compiler.
func referenceApply(pl *core.Platform, f *Filters) []string {
	eq := func(have string, present bool, want string) bool {
		if !present {
			return false
		}
		h, herr := strconv.ParseFloat(have, 64)
		w, werr := strconv.ParseFloat(want, 64)
		if herr == nil && werr == nil {
			return h == w
		}
		return have == want
	}
	src := f.Select
	if src == "" {
		src = "//*"
	}
	out := []string{}
	for _, pu := range MustSelect(pl, src) {
		arch, hasArch := pu.Descriptor.Get(core.PropArchitecture)
		keep := (f.Kind == "" || pu.Class.String() == f.Kind) &&
			(f.Arch == "" || eq(arch.Value, hasArch, f.Arch)) &&
			(f.Group == "" || pu.InGroup(f.Group)) &&
			(f.ID == "" || eq(pu.ID, true, f.ID))
		for _, p := range f.Props {
			prop, ok := pu.Descriptor.Get(p.Name)
			keep = keep && ok && (!p.HasValue || eq(prop.Value, ok, p.Value))
		}
		if keep && (f.Limit == 0 || len(out) < f.Limit) {
			out = append(out, pu.ID)
		}
	}
	return out
}

// BenchmarkFiltersApply times the three query shapes the registry serves on
// xeon-2gpu: flat keys, flat keys with select=, and a selector on the root.
func BenchmarkFiltersApply(b *testing.B) {
	root := New(discover.MustPlatform("xeon-2gpu"))
	for _, c := range []struct {
		name string
		args []string
	}{
		{"flat", []string{"kind=worker", "arch=gpu"}},
		{"flat+select", []string{"kind=worker", "prop=VENDOR", "select=//*[group=devset]"}},
	} {
		f, err := ParseFilterArgs(c.args)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.Apply(root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("Q.Select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := root.Select("//Worker[ARCHITECTURE=gpu]"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// CacheKey must be canonical: the same filter set renders identically no
// matter the construction order, and different sets differ.
func TestFiltersCacheKeyCanonical(t *testing.T) {
	a, _ := ParseFilterArgs([]string{"prop=B", "prop=A", "kind=worker"})
	b, _ := ParseFilterArgs([]string{"kind=Worker", "prop=A", "prop=B"})
	if a.CacheKey() != b.CacheKey() {
		t.Fatalf("keys differ: %q vs %q", a.CacheKey(), b.CacheKey())
	}
	c, _ := ParseFilterArgs([]string{"kind=worker", "prop=A"})
	if a.CacheKey() == c.CacheKey() {
		t.Fatalf("distinct filters share key %q", a.CacheKey())
	}
	empty, _ := ParseFilterArgs(nil)
	if empty.CacheKey() != "" {
		t.Fatalf("empty filters: key=%q", empty.CacheKey())
	}
}

func TestFiltersString(t *testing.T) {
	f, _ := ParseFilterArgs([]string{"kind=worker", "arch=gpu"})
	if got := f.String(); got != "kind=Worker arch=gpu" {
		t.Fatalf("String() = %q", got)
	}
}
