package schema

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/units"
)

// What validates must be what the runtime reads: on every row the size
// validator, the core accessor and the unit table give the same verdict (the
// converted values themselves are internal/units' table test).
func TestParseSize(t *testing.T) {
	cases := []struct {
		value, unit string
		ok          bool
	}{
		{"1", "", true},
		{"1", "B", true},
		{"1572864", "kB", true},
		{"2", "MB", true},
		{"3", "GB", true},
		{"1", "TB", true},
		{"1", "KiB", true},
		{"4", "GiB", true},
		{"16777216", "TiB", false}, // 2^64 bytes: an error, not a wrap to 0
		{"1.5", "GB", false},
		{"-1", "kB", false},
		{"x", "kB", false},
		{"1", "parsecs", false},
	}
	for _, c := range cases {
		want, err := units.Size(c.value, c.unit)
		if (err == nil) != c.ok {
			t.Errorf("units.Size(%q,%q) err=%v; want ok=%v", c.value, c.unit, err, c.ok)
		}
		p := core.Property{Name: core.PropMemSize, Value: c.value, Unit: c.unit, Fixed: true}
		if err := (Spec{Kind: KindSize}).check(p); (err == nil) != c.ok {
			t.Errorf("check(%q,%q) err=%v; want ok=%v", c.value, c.unit, err, c.ok)
		}
		var mr core.MemoryRegion
		mr.Descriptor.Set(p)
		if size, ok := mr.SizeBytes(); ok != c.ok || size != want {
			t.Errorf("SizeBytes(%q,%q) = %d, %v; the unit table says %d, %v", c.value, c.unit, size, ok, want, err)
		}
	}
}

func TestParseFrequencyBandwidthDuration(t *testing.T) {
	cases := []struct {
		kind        Kind
		value, unit string
		ok          bool
	}{
		{KindFrequency, "2660", "MHz", true},
		{KindFrequency, "2.66", "GHz", true},
		{KindFrequency, "1", "eV", false},
		{KindBandwidth, "5", "GB/s", true},
		{KindBandwidth, "x", "GB/s", false},
		{KindDuration, "10", "us", true},
		{KindDuration, "10", "fortnights", false},
	}
	for _, c := range cases {
		err := Spec{Kind: c.kind}.check(core.Property{Name: "A", Value: c.value, Unit: c.unit})
		if (err == nil) != c.ok {
			t.Errorf("%s check(%q,%q) err=%v; want ok=%v", c.kind, c.value, c.unit, err, c.ok)
		}
		// The text validation reports is the one it always has.
		if err != nil && !strings.HasPrefix(err.Error(), "property A: schema: ") {
			t.Errorf("%s check(%q,%q) error %q lost its prefix", c.kind, c.value, c.unit, err)
		}
	}
}

func TestSpecCheckKinds(t *testing.T) {
	cases := []struct {
		spec Spec
		prop core.Property
		ok   bool
	}{
		{Spec{Kind: KindString}, core.Property{Name: "A", Value: "anything"}, true},
		{Spec{Kind: KindInt}, core.Property{Name: "A", Value: "15"}, true},
		{Spec{Kind: KindInt}, core.Property{Name: "A", Value: "15.5"}, false},
		{Spec{Kind: KindFloat}, core.Property{Name: "A", Value: "2.66"}, true},
		{Spec{Kind: KindFloat}, core.Property{Name: "A", Value: "fast"}, false},
		{Spec{Kind: KindBool}, core.Property{Name: "A", Value: "true"}, true},
		{Spec{Kind: KindBool}, core.Property{Name: "A", Value: "yes"}, false},
		{Spec{Kind: KindSize}, core.Property{Name: "A", Value: "48", Unit: "kB"}, true},
		{Spec{Kind: KindSize}, core.Property{Name: "A", Value: "48", Unit: "knots"}, false},
		{Spec{Kind: KindEnum, Enum: []string{"OpenCL", "Cuda"}}, core.Property{Name: "A", Value: "Cuda"}, true},
		{Spec{Kind: KindEnum, Enum: []string{"OpenCL", "Cuda"}}, core.Property{Name: "A", Value: "Brook"}, false},
		{Spec{Kind: KindBandwidth, NeedUnit: true}, core.Property{Name: "A", Value: "5"}, false},
		{Spec{Kind: KindBandwidth, NeedUnit: true}, core.Property{Name: "A", Value: "5", Unit: "GB/s"}, true},
		{Spec{Kind: KindDuration}, core.Property{Name: "A", Value: "10", Unit: "us"}, true},
		{Spec{Kind: KindFrequency}, core.Property{Name: "A", Value: "2660", Unit: "MHz"}, true},
	}
	for i, c := range cases {
		err := c.spec.check(c.prop)
		if (err == nil) != c.ok {
			t.Errorf("case %d (%s): err = %v; want ok=%v", i, c.spec.Kind, err, c.ok)
		}
	}
}

func TestRegistryLookupInheritance(t *testing.T) {
	reg := Default()
	// Subschema-specific spec.
	p := core.Property{Name: "MAX_COMPUTE_UNITS", Value: "15", Type: "ocl:oclDevicePropertyType"}
	spec, ok, err := reg.Lookup(p)
	if err != nil || !ok || spec.Kind != KindInt {
		t.Fatalf("Lookup ocl = %v %v %v", spec, ok, err)
	}
	// Inherited base spec through a subschema type.
	p2 := core.Property{Name: core.PropArchitecture, Value: "gpu", Type: "ocl:oclDevicePropertyType"}
	if _, ok, err := reg.Lookup(p2); err != nil || !ok {
		t.Fatalf("base inheritance failed: %v %v", ok, err)
	}
	// Unregistered type errors.
	p3 := core.Property{Name: "X", Value: "1", Type: "nope:thing"}
	if _, _, err := reg.Lookup(p3); err == nil {
		t.Fatal("unregistered subschema type must error")
	}
	// Ungoverned plain property: allowed, not governed.
	p4 := core.Property{Name: "MY_CUSTOM_TAG", Value: "1"}
	if _, ok, err := reg.Lookup(p4); err != nil || ok {
		t.Fatalf("open property should be ungoverned: %v %v", ok, err)
	}
}

func TestRegisterErrors(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&Subschema{Prefix: "", TypeName: "t", Version: "1.0"}); err == nil {
		t.Fatal("empty prefix must fail")
	}
	if err := r.Register(&Subschema{Prefix: "p", TypeName: "t", Version: "one"}); err == nil {
		t.Fatal("bad version must fail")
	}
	ok := &Subschema{Prefix: "p", TypeName: "t", Version: "1.2", Specs: map[string]Spec{}}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if n := len(r.Subschemas()); n != 1 {
		t.Fatalf("Subschemas() len = %d", n)
	}
}

func TestCompatibleVersions(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"1.0", "1.5", true},
		{"1.0", "2.0", false},
		{"1.0", "1.0", true},
		{"1", "1.0", false},
		{"x.y", "1.0", false},
	}
	for _, c := range cases {
		if got := CompatibleVersions(c.a, c.b); got != c.want {
			t.Errorf("CompatibleVersions(%q,%q) = %v; want %v", c.a, c.b, got, c.want)
		}
	}
}

func validFixture(t testing.TB) *core.Platform {
	t.Helper()
	pl, err := core.NewBuilder("fixture").
		Master("cpu", core.Arch("x86"),
			core.WithUnitProp(core.PropClockMHz, "2660", "MHz"),
			core.WithProp(core.PropCores, "8")).
		Worker("gpu0", core.Arch("gpu")).
		Link(core.ICTypePCIe, "cpu", "gpu0", core.Bandwidth(5), core.Latency(10)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	pl.FindPU("gpu0").Descriptor.Set(core.Property{
		Name: "MAX_COMPUTE_UNITS", Value: "15", Type: "ocl:oclDevicePropertyType",
	})
	return pl
}

func TestValidatePlatformOK(t *testing.T) {
	rep := ValidatePlatform(validFixture(t), Default())
	if !rep.OK() {
		t.Fatalf("valid platform rejected: %v", rep.Errors)
	}
	if rep.Err() != nil {
		t.Fatal("Err() should be nil for ok report")
	}
	if !strings.Contains(rep.String(), "ok") && len(rep.Warnings) == 0 {
		t.Fatalf("String() = %q", rep.String())
	}
}

func TestValidatePlatformTypedErrors(t *testing.T) {
	pl := validFixture(t)
	pl.FindPU("cpu").Descriptor.Set(core.Property{Name: core.PropCores, Value: "many", Fixed: true})
	rep := ValidatePlatform(pl, Default())
	if rep.OK() {
		t.Fatal("non-integer CORES must be rejected")
	}
	if !strings.Contains(rep.Err().Error(), "not an integer") {
		t.Fatalf("err = %v", rep.Err())
	}
}

func TestValidatePlatformStructuralErrorsSurface(t *testing.T) {
	pl := &core.Platform{} // no masters
	rep := ValidatePlatform(pl, Default())
	if rep.OK() {
		t.Fatal("structurally invalid platform accepted")
	}
	found := false
	for _, e := range rep.Errors {
		if strings.Contains(e, "no Master") {
			found = true
		}
	}
	if !found {
		t.Fatalf("structural problem not in report: %v", rep.Errors)
	}
}

func TestValidatePlatformWarnsOnOpenProperties(t *testing.T) {
	pl := validFixture(t)
	pl.FindPU("cpu").Descriptor.SetFixed("MY_SITE_LABEL", "rack42")
	rep := ValidatePlatform(pl, Default())
	if !rep.OK() {
		t.Fatalf("open property must not be an error: %v", rep.Errors)
	}
	if len(rep.Warnings) == 0 || !strings.Contains(rep.Warnings[0], "MY_SITE_LABEL") {
		t.Fatalf("warnings = %v", rep.Warnings)
	}
	if !strings.Contains(rep.String(), "warning:") {
		t.Fatalf("String() = %q", rep.String())
	}
}

func TestValidatePlatformEmptyPropertyName(t *testing.T) {
	pl := validFixture(t)
	pl.FindPU("cpu").Descriptor.Properties = append(pl.FindPU("cpu").Descriptor.Properties,
		core.Property{Name: "  ", Value: "x"})
	rep := ValidatePlatform(pl, Default())
	if rep.OK() || !strings.Contains(rep.Err().Error(), "empty name") {
		t.Fatalf("report = %+v", rep)
	}
}

func TestValidatePlatformChecksLinkDescriptors(t *testing.T) {
	pl := validFixture(t)
	// Corrupt the interconnect bandwidth property.
	m := pl.FindPU("cpu")
	for i := range m.Links {
		m.Links[i].Descriptor.Set(core.Property{Name: "BANDWIDTH", Value: "warp", Unit: "GB/s", Fixed: true})
	}
	rep := ValidatePlatform(pl, Default())
	if rep.OK() {
		t.Fatal("bad link bandwidth accepted")
	}
}

// Property-based: sizes are monotone in the unit ladder.
func TestQuickSizeUnitsMonotone(t *testing.T) {
	f := func(n uint16) bool {
		v := int64(n%1000) + 1
		s := func(u string) uint64 {
			b, err := units.Size(strings.TrimSpace(fmtInt(v)), u)
			if err != nil {
				t.Fatalf("units.Size: %v", err)
			}
			return b
		}
		return s("B") < s("kB") && s("kB") < s("MB") && s("MB") < s("GB")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func fmtInt(v int64) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}
