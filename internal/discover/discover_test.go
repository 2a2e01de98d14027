package discover

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pdlxml"
	"repro/internal/query"
	"repro/internal/schema"
)

func TestProbeHost(t *testing.T) {
	h := ProbeHost()
	if h.Cores < 1 {
		t.Fatalf("cores = %d", h.Cores)
	}
	if h.Arch == "" {
		t.Fatal("empty arch")
	}
}

func TestGenerateBasic(t *testing.T) {
	host := HostInfo{Arch: "x86", Cores: 8}
	pl, err := Generate(Options{Name: "g", Host: &host, Devices: []*OpenCLDevice{GTX480(), GTX285()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(query.MustSelect(pl, "//Worker[ARCHITECTURE=gpu]")); got != 2 {
		t.Fatalf("gpu workers = %d", got)
	}
	if got := pl.FindPU("host").EffectiveQuantity(); got != 8 {
		t.Fatalf("host quantity = %d", got)
	}
	// Fixed properties present even without Concrete.
	if v := pl.FindPU("dev0").Descriptor.Value(core.PropDeviceName); v != "GeForce GTX 480" {
		t.Fatalf("dev0 name = %q", v)
	}
	// Runtime properties absent without Concrete.
	if _, ok := pl.FindPU("dev0").Descriptor.Get("MAX_COMPUTE_UNITS"); ok {
		t.Fatal("runtime properties attached without Concrete")
	}
	// Links exist with bandwidth.
	ic, ok := pl.LinkBetween("host", "dev1")
	if !ok {
		t.Fatal("missing host-dev1 link")
	}
	if _, ok := ic.BandwidthBytesPerSec(); !ok {
		t.Fatal("link missing bandwidth")
	}
}

func TestGenerateConcreteReproducesListing2(t *testing.T) {
	pl := MustPlatform("gtx480")
	w := pl.FindPU("dev0")
	// The four properties of the paper's Listing 2, with identical values.
	checks := map[string]struct{ value, unit string }{
		"DEVICE_NAME":              {"GeForce GTX 480", ""},
		"MAX_COMPUTE_UNITS":        {"15", ""},
		"MAX_WORK_ITEM_DIMENSIONS": {"3", ""},
		"GLOBAL_MEM_SIZE":          {"1572864", "kB"},
		"LOCAL_MEM_SIZE":           {"48", "kB"},
	}
	for name, want := range checks {
		p, ok := w.Descriptor.Get(name)
		if !ok {
			t.Errorf("missing property %s", name)
			continue
		}
		if p.Value != want.value || p.Unit != want.unit {
			t.Errorf("%s = %q %q; want %q %q", name, p.Value, p.Unit, want.value, want.unit)
		}
		if p.Fixed {
			t.Errorf("%s should be unfixed (runtime-derived)", name)
		}
		if p.Type != "ocl:oclDevicePropertyType" {
			t.Errorf("%s type = %q", name, p.Type)
		}
	}
	// And it serialises with the ocl namespace, like the paper's listing.
	data, err := pdlxml.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<ocl:name>MAX_COMPUTE_UNITS</ocl:name>", "<ocl:value>15</ocl:value>", `xsi:type="ocl:oclDevicePropertyType"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("marshalled gtx480 missing %q", want)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	bad := HostInfo{Arch: "x86", Cores: 0}
	if _, err := Generate(Options{Host: &bad}); err == nil {
		t.Fatal("0-core host must fail")
	}
}

// TestCatalogAllEntriesValidateAndRoundTrip holds every catalog platform to
// what pdlvalidate -strict checks (no schema error and no warning) and to a
// round trip through the XML codec.
func TestCatalogAllEntriesValidateAndRoundTrip(t *testing.T) {
	for _, name := range CatalogNames() {
		t.Run(name, func(t *testing.T) {
			pl, err := Platform(name)
			if err != nil {
				t.Fatal(err)
			}
			if pl.Name != name {
				t.Fatalf("platform %s is named %q", name, pl.Name)
			}
			rep := schema.ValidatePlatform(pl, schema.Default())
			if !rep.OK() || len(rep.Warnings) > 0 {
				t.Fatalf("catalog %s fails strict schema validation: errors %v, warnings %v", name, rep.Errors, rep.Warnings)
			}
			data, err := pdlxml.Marshal(pl)
			if err != nil {
				t.Fatal(err)
			}
			back, err := pdlxml.Unmarshal(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := back.Validate(); err != nil {
				t.Fatal(err)
			}
			if CatalogDoc(name) == "" {
				t.Error("catalog entry without doc line")
			}
		})
	}
	if CatalogDoc("nope") != "" {
		t.Error("doc of unknown platform should be empty")
	}
}

// TestCatalogIsTheFiles pins the catalog to platforms/: its names are the file
// names plus this-host, and each platform marshals to its file's bytes minus
// the comment lines, so the dialect on disk is exactly what Marshal writes.
func TestCatalogIsTheFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("platforms", "*"+platformExt))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{thisHost}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), platformExt)
		want = append(want, name)
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pdlxml.Marshal(MustPlatform(name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != withoutComments(data) {
			t.Errorf("%s: Marshal(Platform(%q)) differs from the file without its comments:\n%s", f, name, got)
		}
	}
	slices.Sort(want)
	if got := CatalogNames(); !slices.Equal(got, want) {
		t.Fatalf("CatalogNames() = %v; want %v", got, want)
	}
}

func withoutComments(data []byte) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "<!--") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestPlatformReturnsACopy changes returned platforms, from several
// goroutines at once, and expects the next Platform call to be unchanged: the
// parsed catalog is shared, what Platform returns is not.
func TestPlatformReturnsACopy(t *testing.T) {
	before, err := pdlxml.Marshal(MustPlatform("xeon-2gpu"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl, err := Platform("xeon-2gpu")
			if err != nil {
				t.Error(err)
				return
			}
			host := pl.FindPU("host")
			host.Links[0].Descriptor.Set(core.Property{Name: "BANDWIDTH", Value: "1", Unit: "GB/s", Fixed: true})
			host.Descriptor.Set(core.Property{Name: "PEAK_GFLOPS_DP", Value: "1", Fixed: true, Type: simType})
			host.Quantity = 99
			pl.Name = "changed"
		}()
	}
	wg.Wait()
	after, err := pdlxml.Marshal(MustPlatform("xeon-2gpu"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("a change to a returned platform leaked into the catalog:\n%s", after)
	}
}

func TestCatalogUnknown(t *testing.T) {
	if _, err := Platform("pdp11"); err == nil {
		t.Fatal("unknown platform must fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustPlatform should panic on unknown name")
		}
	}()
	MustPlatform("pdp11")
}

func TestXeon2GPUCalibration(t *testing.T) {
	pl := MustPlatform("xeon-2gpu")
	m := pl.FindPU("host")
	gf, ok := m.Descriptor.Float("PEAK_GFLOPS_DP")
	if !ok || gf != 10.64 {
		t.Fatalf("host PEAK_GFLOPS_DP = %g, %v", gf, ok)
	}
	if got := m.EffectiveQuantity(); got != 8 {
		t.Fatalf("host cores = %d", got)
	}
	g480 := pl.FindPU("dev0")
	if gf, _ := g480.Descriptor.Float("PEAK_GFLOPS_DP"); gf != 168 {
		t.Fatalf("gtx480 peak = %g", gf)
	}
	g285 := pl.FindPU("dev1")
	if v := g285.Descriptor.Value(core.PropDeviceName); v != "GeForce GTX 285" {
		t.Fatalf("dev1 = %q", v)
	}
	// Effective DGEMM rates order correctly: gtx480 > gtx285 > one core.
	rate := func(pu *core.PU) float64 {
		p, _ := pu.Descriptor.Float("PEAK_GFLOPS_DP")
		e, _ := pu.Descriptor.Float("DGEMM_EFFICIENCY")
		return p * e
	}
	if !(rate(g480) > rate(g285) && rate(g285) > rate(m)) {
		t.Fatalf("calibration ordering wrong: %g %g %g", rate(g480), rate(g285), rate(m))
	}
}

func TestCellBladeShape(t *testing.T) {
	pl := MustPlatform("cell-blade")
	if got := len(query.MustSelect(pl, "//Hybrid")); got != 1 {
		t.Fatalf("hybrids = %d", got)
	}
	spe := pl.FindPU("spe")
	if spe.EffectiveQuantity() != 8 || spe.Architecture() != "spe" {
		t.Fatalf("spe = %v", spe)
	}
	if v := spe.Descriptor.Value("LOCAL_STORE"); v != "256" {
		t.Fatalf("LOCAL_STORE = %q", v)
	}
}
