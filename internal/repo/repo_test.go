package repo

import (
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/csrc"
	"repro/internal/taskrt"
)

func TestAddValidation(t *testing.T) {
	r := New()
	if err := r.Add(&Variant{Name: "x", Targets: []string{"x86"}, Arch: "x86"}); err == nil {
		t.Fatal("missing interface must fail")
	}
	if err := r.Add(&Variant{Interface: "I", Name: "x", Arch: "x86"}); err == nil {
		t.Fatal("missing targets must fail")
	}
	if err := r.Add(&Variant{Interface: "I", Name: "x", Targets: []string{"x86"}}); err == nil {
		t.Fatal("missing arch must fail")
	}
	v := &Variant{Interface: "I", Name: "x", Targets: []string{"x86"}, Arch: "x86"}
	if err := r.Add(v); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(&Variant{Interface: "J", Name: "x", Targets: []string{"x86"}, Arch: "x86"}); err == nil {
		t.Fatal("duplicate name must fail")
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestLookups(t *testing.T) {
	r := NewWithLibrary()
	dg := r.VariantsFor(IfaceDGEMM)
	if len(dg) != 3 {
		t.Fatalf("dgemm variants = %d", len(dg))
	}
	if _, ok := r.ByName("dgemm_cublas"); !ok {
		t.Fatal("dgemm_cublas missing")
	}
	if _, ok := r.ByName("nonesuch"); ok {
		t.Fatal("ByName false positive")
	}
	ifaces := r.Interfaces()
	if len(ifaces) != 2 || ifaces[0] != IfaceDGEMM {
		t.Fatalf("interfaces = %v", ifaces)
	}
	cublas, _ := r.ByName("dgemm_cublas")
	if !cublas.TargetsPattern("cuda") || cublas.TargetsPattern("x86") {
		t.Fatal("TargetsPattern wrong")
	}
	if cublas.Kernel != nil {
		t.Fatal("cublas variant must be simulation-only")
	}
	if !strings.Contains(cublas.String(), "library") {
		t.Fatalf("String() = %q", cublas.String())
	}
	// Mutating the returned slice must not corrupt the repository.
	vs := r.VariantsFor(IfaceDGEMM)
	vs[0] = nil
	if r.VariantsFor(IfaceDGEMM)[0] == nil {
		t.Fatal("VariantsFor exposes internal slice")
	}
}

func TestLibraryKernelsRun(t *testing.T) {
	r := NewWithLibrary()
	goto_, _ := r.ByName("dgemm_goto")
	a, b, c := blas.NewMatrix(8, 8), blas.NewMatrix(8, 8), blas.NewMatrix(8, 8)
	a.FillRandom(1)
	b.FillIdentity()
	if err := goto_.Kernel(&taskrt.TaskContext{Data: []any{a, b, c}}); err != nil {
		t.Fatal(err)
	}
	if !blas.Equal(a, c, 1e-12) {
		t.Fatal("dgemm_goto kernel wrong")
	}
	naive, _ := r.ByName("dgemm_naive")
	d := blas.NewMatrix(8, 8)
	if err := naive.Kernel(&taskrt.TaskContext{Data: []any{a, b, d}}); err != nil || !blas.Equal(a, d, 1e-12) {
		t.Fatalf("dgemm_naive kernel wrong: %v", err)
	}
	// A wrong payload type, or too few payloads, errors cleanly.
	if err := goto_.Kernel(&taskrt.TaskContext{Data: []any{a, 42, c}}); err == nil {
		t.Fatal("wrong payload must fail")
	}
	if err := goto_.Kernel(&taskrt.TaskContext{Data: []any{c}}); err == nil || !strings.Contains(err.Error(), "takes 3 payloads, the task has 1") {
		t.Fatalf("a one-payload task must fail on arity, got %v", err)
	}

	va, _ := r.ByName("vecadd_x86")
	x := []float64{1, 2}
	y := []float64{3, 4}
	if err := va.Kernel(&taskrt.TaskContext{Data: []any{x, y}}); err != nil {
		t.Fatal(err)
	}
	if x[0] != 4 || x[1] != 6 {
		t.Fatalf("vecadd result = %v", x)
	}
	if err := va.Kernel(&taskrt.TaskContext{Data: []any{42, y}}); err == nil {
		t.Fatal("wrong payload 0 must fail")
	}
	if err := va.Kernel(&taskrt.TaskContext{Data: []any{x, "y"}}); err == nil {
		t.Fatal("wrong payload 1 must fail")
	}
}

const annotated = `#pragma cascabel task : x86
 : Ivecadd
 : vecadd01
 : (A:readwrite, B:read)
void vector_add(double *A, double *B) { }
#pragma cascabel task : opencl, cuda
 : Ivecadd
 : vecadd_gpu01
 : (A:readwrite, B:read)
void vector_add_gpu(double *A, double *B) { }
`

func TestRegisterProgram(t *testing.T) {
	prog, err := csrc.ParseProgram(annotated)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.RegisterProgram(prog, DefaultKernels()); err != nil {
		t.Fatal(err)
	}
	vs := r.VariantsFor("Ivecadd")
	if len(vs) != 2 {
		t.Fatalf("variants = %d", len(vs))
	}
	cpu, _ := r.ByName("vecadd01")
	if cpu.Origin != User || cpu.Arch != "x86" {
		t.Fatalf("cpu variant = %+v", cpu)
	}
	if cpu.Kernel == nil {
		t.Fatal("vecadd01 should resolve a runnable kernel from the registry")
	}
	gpu, _ := r.ByName("vecadd_gpu01")
	if gpu.Arch != "gpu" {
		t.Fatalf("gpu variant arch = %q", gpu.Arch)
	}
	if gpu.Kernel != nil {
		t.Fatal("unknown kernel names must stay simulation-only")
	}
	// Duplicate registration collides on names.
	if err := r.RegisterProgram(prog, nil); err == nil {
		t.Fatal("re-registering must fail on duplicate names")
	}
}

func TestTargetArchMapping(t *testing.T) {
	cases := map[string]string{
		"x86": "x86", "seq": "x86", "smp": "x86", "starpu": "x86",
		"opencl": "gpu", "cuda": "gpu", "multi-gpu": "gpu", "host-device": "gpu",
		"cell": "spe",
	}
	for target, want := range cases {
		if got := targetArch(target); got != want {
			t.Errorf("targetArch(%q) = %q; want %q", target, got, want)
		}
	}
}
