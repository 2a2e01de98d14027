package mapping

import (
	"strings"
	"testing"

	"repro/internal/csrc"
	"repro/internal/discover"
	"repro/internal/repo"
)

func TestPreselectXeon2GPU(t *testing.T) {
	r := repo.NewWithLibrary()
	pl := discover.MustPlatform("xeon-2gpu")
	sel, err := Preselect(r, repo.IfaceDGEMM, pl)
	if err != nil {
		t.Fatal(err)
	}
	// All three DGEMM variants survive: x86 patterns and gpu patterns both
	// match the 8-core + 2-gpu box.
	if len(sel.Variants) != 3 {
		t.Fatalf("variants = %v", sel.Variants)
	}
	if !sel.HasFallback() {
		t.Fatal("fallback lost")
	}
	archs := sel.Archs()
	if len(archs) != 2 {
		t.Fatalf("archs = %v", archs)
	}
	if len(sel.ForArch("gpu")) != 1 {
		t.Fatalf("gpu variants = %v", sel.ForArch("gpu"))
	}
	// The cublas variant's binding names the host/device roles.
	b := sel.Bindings["dgemm_cublas"]
	if b == nil || b.UnitCount("device") != 2 {
		t.Fatalf("cublas binding = %v", b)
	}
}

func TestPreselectCPUOnlyPrunesGPU(t *testing.T) {
	r := repo.NewWithLibrary()
	pl := discover.MustPlatform("xeon-cpu")
	sel, err := Preselect(r, repo.IfaceDGEMM, pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sel.Variants {
		if v.Arch == "gpu" {
			t.Fatalf("gpu variant %s survived on a CPU-only box", v.Name)
		}
	}
	if len(sel.Variants) != 2 {
		t.Fatalf("variants = %v", sel.Variants)
	}
}

func TestPreselectErrors(t *testing.T) {
	r := repo.NewWithLibrary()
	pl := discover.MustPlatform("xeon-cpu")
	if _, err := Preselect(r, "Inosuch", pl); err == nil {
		t.Fatal("unknown interface must fail")
	}
	// An interface with only gpu variants on a CPU box: no match at all.
	r2 := repo.New()
	_ = r2.Add(&repo.Variant{Interface: "Igpu", Name: "g1", Targets: []string{"cuda"}, Arch: "gpu"})
	if _, err := Preselect(r2, "Igpu", pl); err == nil || !strings.Contains(err.Error(), "no variant") {
		t.Fatalf("err = %v", err)
	}
	// gpu-only variants matching a gpu platform still lack the fallback.
	gpl := discover.MustPlatform("xeon-2gpu")
	if _, err := Preselect(r2, "Igpu", gpl); err == nil || !strings.Contains(err.Error(), "fall-back") {
		t.Fatalf("err = %v", err)
	}
	// Unknown target pattern names are reported.
	r3 := repo.New()
	_ = r3.Add(&repo.Variant{Interface: "Ix", Name: "x1", Targets: []string{"quantum"}, Arch: "x86"})
	if _, err := Preselect(r3, "Ix", pl); err == nil || !strings.Contains(err.Error(), "unknown target") {
		t.Fatalf("err = %v", err)
	}
}

func TestResolveGroup(t *testing.T) {
	pl := discover.MustPlatform("xeon-2gpu")
	pus, err := ResolveGroup(pl, "devset")
	if err != nil {
		t.Fatal(err)
	}
	if len(pus) != 2 || pus[0].ID != "dev0" {
		t.Fatalf("devset = %v", pus)
	}
	if pus, err := ResolveGroup(pl, ""); err != nil || pus != nil {
		t.Fatalf("empty group = %v, %v", pus, err)
	}
	if _, err := ResolveGroup(pl, "ghostset"); err == nil {
		t.Fatal("unknown group must fail")
	}
}

const program = `#pragma cascabel task : x86
 : Idgemm
 : dgemm_seq
 : (A:read, B:read, C:readwrite)
void dgemm(double *A, double *B, double *C) { }
int main() {
#pragma cascabel execute Idgemm : cpuset (A:BLOCK, B:BLOCK, C:BLOCK)
dgemm(A, B, C);
}
`

func TestPlanProgram(t *testing.T) {
	prog, err := csrc.ParseProgram(program)
	if err != nil {
		t.Fatal(err)
	}
	r := repo.NewWithLibrary()
	if err := r.RegisterProgram(prog, repo.DefaultKernels()); err != nil {
		t.Fatal(err)
	}
	pl := discover.MustPlatform("xeon-2gpu")
	plan, err := PlanProgram(prog, r, pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Sites) != 1 {
		t.Fatalf("sites = %d", len(plan.Sites))
	}
	sp := plan.Sites[0]
	// The user dgemm_seq variant plus the three library variants survive.
	if len(sp.Selection.Variants) != 4 {
		t.Fatalf("variants = %v", sp.Selection.Variants)
	}
	if len(sp.GroupPUs) != 1 || sp.GroupPUs[0].ID != "host" {
		t.Fatalf("group = %v", sp.GroupPUs)
	}
	s := plan.Summary()
	for _, want := range []string{"xeon-2gpu", "Idgemm", "dgemm_cublas(gpu)", "group=[host]"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
}

func TestPlanProgramErrors(t *testing.T) {
	prog, err := csrc.ParseProgram(program)
	if err != nil {
		t.Fatal(err)
	}
	r := repo.NewWithLibrary()
	_ = r.RegisterProgram(prog, nil)
	// Program with no execute annotations.
	empty, err := csrc.ParseProgram("int main() { return 0; }\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanProgram(empty, r, discover.MustPlatform("xeon-cpu")); err == nil {
		t.Fatal("program without execute annotations must fail")
	}
	// Unknown group in the annotation.
	bad := strings.Replace(program, "cpuset", "nosuchset", 1)
	prog2, err := csrc.ParseProgram(bad)
	if err != nil {
		t.Fatal(err)
	}
	r2 := repo.NewWithLibrary()
	_ = r2.RegisterProgram(prog2, nil)
	if _, err := PlanProgram(prog2, r2, discover.MustPlatform("xeon-2gpu")); err == nil || !strings.Contains(err.Error(), "nosuchset") {
		t.Fatalf("err = %v", err)
	}
}

// The two toolchain steps no benchmark/ row times: variant pre-selection
// against a PDL document, and the whole translation of one program (parse,
// register, plan). Run with `go test -bench . ./internal/mapping`.
func BenchmarkPreselect(b *testing.B) {
	r := repo.NewWithLibrary()
	pl := discover.MustPlatform("xeon-2gpu")
	for i := 0; i < b.N; i++ {
		if _, err := Preselect(r, repo.IfaceDGEMM, pl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranslate(b *testing.B) {
	pl := discover.MustPlatform("xeon-2gpu")
	for i := 0; i < b.N; i++ {
		prog, err := csrc.ParseProgram(program)
		if err != nil {
			b.Fatal(err)
		}
		r := repo.NewWithLibrary()
		if err := r.RegisterProgram(prog, repo.DefaultKernels()); err != nil {
			b.Fatal(err)
		}
		if _, err := PlanProgram(prog, r, pl); err != nil {
			b.Fatal(err)
		}
	}
}
