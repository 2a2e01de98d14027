package taskrt

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/perfmodel"
)

func cpuPlatform(t testing.TB, cores int) *core.Platform {
	t.Helper()
	pl, err := core.NewBuilder("cpu").
		Master("host", core.Arch("x86"), core.Qty(cores)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func noopCodelet(t testing.TB, name string) *Codelet {
	t.Helper()
	c, err := NewCodelet(name, Impl{Arch: "x86", Func: func(*TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseAccessMode(t *testing.T) {
	for s, want := range map[string]AccessMode{
		"read": Read, "r": Read, "in": Read,
		"write": Write, "w": Write, "out": Write,
		"readwrite": ReadWrite, "rw": ReadWrite, "inout": ReadWrite,
	} {
		got, err := ParseAccessMode(s)
		if err != nil || got != want {
			t.Errorf("ParseAccessMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAccessMode("peek"); err == nil {
		t.Fatal("unknown mode must fail")
	}
	if Read.String() != "read" || ReadWrite.String() != "readwrite" {
		t.Fatal("String spelling wrong")
	}
	if !ReadWrite.Reads() || !ReadWrite.Writes() || Read.Writes() || Write.Reads() {
		t.Fatal("Reads/Writes predicates wrong")
	}
}

func TestNewCodeletValidation(t *testing.T) {
	if _, err := NewCodelet(""); err == nil {
		t.Fatal("empty name must fail")
	}
	if _, err := NewCodelet("x"); err == nil {
		t.Fatal("no impls must fail")
	}
	if _, err := NewCodelet("x", Impl{Arch: ""}); err == nil {
		t.Fatal("impl without arch must fail")
	}
	if _, err := NewCodelet("x", Impl{Arch: "x86"}, Impl{Arch: "x86"}); err == nil {
		t.Fatal("duplicate arch must fail")
	}
	c, err := NewCodelet("x", Impl{Arch: "x86"}, Impl{Arch: "gpu"})
	if err != nil {
		t.Fatal(err)
	}
	if c.ImplFor("gpu") == nil || c.ImplFor("spe") != nil {
		t.Fatal("ImplFor wrong")
	}
	if len(c.Archs()) != 2 {
		t.Fatal("Archs wrong")
	}
}

func TestKernelBinding(t *testing.T) {
	var got []any
	k := Kernel3(func(a int, b string, c []float64) error {
		got = []any{a, b, c}
		return nil
	})
	task := &Task{Codelet: &Codelet{Name: "mix"}}
	run := func(task *Task, data ...any) error {
		got = nil
		return k(&TaskContext{Data: data, Task: task})
	}
	vec := []float64{1}

	// Trailing payloads only order the task: the kernel sees the first three.
	if err := run(task, 7, "s", vec, "extra", 9); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 7 || got[1] != "s" {
		t.Fatalf("kernel saw %v", got)
	}

	for _, tc := range []struct {
		data []any
		want string
	}{
		{[]any{7}, `codelet "mix" takes 3 payloads, the task has 1`},
		{[]any{}, `codelet "mix" takes 3 payloads, the task has 0`},
		{[]any{"7", "s", vec}, `codelet "mix" payload 0 is string, want int`},
		{[]any{7, 8, vec}, `codelet "mix" payload 1 is int, want string`},
		{[]any{7, "s", nil}, `codelet "mix" payload 2 is <nil>, want []float64`},
	} {
		err := run(task, tc.data...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("payloads %v: err = %v, want %q", tc.data, err, tc.want)
		}
		if got != nil {
			t.Errorf("payloads %v reached the kernel", tc.data)
		}
	}

	// A bare context (no Task) is checked the same way and does not panic.
	if err := run(nil, 7); err == nil || !strings.Contains(err.Error(), "takes 3 payloads") {
		t.Fatalf("nil task: err = %v", err)
	}
	if err := Kernel1(func(int) error { return nil })(&TaskContext{Data: []any{"x"}}); err == nil {
		t.Fatal("nil task with a wrong payload must fail")
	}
	if err := Kernel2(func(int, int) error { return nil })(&TaskContext{Data: []any{1, 2}}); err != nil {
		t.Fatal(err)
	}
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil platform must fail")
	}
	if _, err := New(Config{Platform: &core.Platform{}}); err == nil {
		t.Fatal("invalid platform must fail")
	}
	if _, err := New(Config{Platform: cpuPlatform(t, 2), Scheduler: "lottery"}); err == nil {
		t.Fatal("unknown scheduler must fail")
	}
	if _, err := New(Config{Platform: cpuPlatform(t, 2), Mode: Mode(7)}); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("unknown mode: err = %v", err)
	}
	if _, err := Run(&Graph{}, Config{Platform: cpuPlatform(t, 2), Mode: Mode(7)}); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("Run with an unknown mode: err = %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	rt, err := New(Config{Platform: cpuPlatform(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(&Task{}); err == nil {
		t.Fatal("task without codelet must fail")
	}
	if err := rt.Submit(&Task{Codelet: &Codelet{Name: "none"}}); err == nil {
		t.Fatal("codelet without impls must fail")
	}
	cl := noopCodelet(t, "noop")
	h := rt.NewHandle("h", 8, nil)
	if err := rt.Submit(&Task{Codelet: cl, Accesses: []Access{R(h), W(h)}}); err == nil {
		t.Fatal("duplicate handle access must fail")
	}
	if err := rt.Submit(&Task{Codelet: cl, Accesses: []Access{{Handle: nil, Mode: Read}}}); err == nil {
		t.Fatal("nil handle must fail")
	}
}

func TestDependencyDerivation(t *testing.T) {
	rt, err := New(Config{Platform: cpuPlatform(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	cl := noopCodelet(t, "noop")
	a := rt.NewHandle("a", 8, nil)
	b := rt.NewHandle("b", 8, nil)

	w1 := &Task{Codelet: cl, Accesses: []Access{W(a)}, Label: "w1"}
	r1 := &Task{Codelet: cl, Accesses: []Access{R(a)}, Label: "r1"}
	r2 := &Task{Codelet: cl, Accesses: []Access{R(a)}, Label: "r2"}
	w2 := &Task{Codelet: cl, Accesses: []Access{W(a)}, Label: "w2"}
	rw := &Task{Codelet: cl, Accesses: []Access{RW(a), R(b)}, Label: "rw"}
	ind := &Task{Codelet: cl, Accesses: []Access{R(b)}, Label: "ind"}

	for _, task := range []*Task{w1, r1, r2, w2, rw, ind} {
		if err := rt.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	g := rt.Graph()
	depIDs := func(task *Task) []string {
		var out []string
		for _, d := range g.Deps(task) {
			out = append(out, g.Tasks()[d].Label)
		}
		return out
	}
	// RAW: readers depend on w1.
	if got := depIDs(r1); len(got) != 1 || got[0] != "w1" {
		t.Fatalf("r1 deps = %v", got)
	}
	if got := depIDs(r2); len(got) != 1 || got[0] != "w1" {
		t.Fatalf("r2 deps = %v", got)
	}
	// WAR+WAW: w2 depends on both readers and the previous writer.
	got := depIDs(w2)
	want := map[string]bool{"w1": true, "r1": true, "r2": true}
	if len(got) != 3 {
		t.Fatalf("w2 deps = %v", got)
	}
	for _, d := range got {
		if !want[d] {
			t.Fatalf("w2 deps = %v", got)
		}
	}
	// rw depends on w2 (RAW on a); nothing else wrote b.
	if got := depIDs(rw); len(got) != 1 || got[0] != "w2" {
		t.Fatalf("rw deps = %v", got)
	}
	// Independent reader of b has no deps.
	if got := depIDs(ind); len(got) != 0 {
		t.Fatalf("ind deps = %v", got)
	}
}

func TestRealExecutionRunsKernelsWithPayloads(t *testing.T) {
	rt, err := New(Config{Platform: cpuPlatform(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 100)
	h := rt.NewHandle("vec", 800, data)
	var calls int32
	cl, err := NewCodelet("fill", Impl{Arch: "x86", Func: func(tc *TaskContext) error {
		atomic.AddInt32(&calls, 1)
		v := tc.Payload(0).([]float64)
		for i := range v {
			v[i]++
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Three sequential RW tasks must chain and run exactly 3 times.
	for i := 0; i < 3; i++ {
		if err := rt.Submit(&Task{Codelet: cl, Accesses: []Access{RW(h)}, Flops: 100}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("kernel ran %d times", calls)
	}
	if data[0] != 3 || data[99] != 3 {
		t.Fatalf("payload = %g (dependency order violated?)", data[0])
	}
	if rep.Mode != Real || rep.Tasks != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.MakespanSeconds <= 0 {
		t.Fatal("makespan must be positive")
	}
	total := 0
	for _, u := range rep.PerUnit {
		total += u.Tasks
	}
	if total != 3 {
		t.Fatalf("per-unit tasks = %d", total)
	}
}

func TestRealExecutionParallelismAcrossIndependentTasks(t *testing.T) {
	rt, err := New(Config{Platform: cpuPlatform(t, 4), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCodelet("sleepy", Impl{Arch: "x86", Func: func(*TaskContext) error {
		time.Sleep(time.Millisecond)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		h := rt.NewHandle(fmt.Sprint(i), 8, nil)
		if err := rt.Submit(&Task{Codelet: cl, Accesses: []Access{W(h)}}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BusyUnits() < 2 {
		t.Fatalf("expected multiple busy workers, got %d", rep.BusyUnits())
	}
}

func TestRealExecutionKernelError(t *testing.T) {
	rt, err := New(Config{Platform: cpuPlatform(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	boom, err := NewCodelet("boom", Impl{Arch: "x86", Func: func(*TaskContext) error {
		return fmt.Errorf("kaput")
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle("h", 8, nil)
	_ = rt.Submit(&Task{Codelet: boom, Accesses: []Access{W(h)}})
	_ = rt.Submit(&Task{Codelet: boom, Accesses: []Access{RW(h)}})
	if _, err := rt.Run(); err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v", err)
	}
}

func TestRealExecutionMissingImpl(t *testing.T) {
	rt, err := New(Config{Platform: cpuPlatform(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	gpuOnly, err := NewCodelet("gpu-only", Impl{Arch: "gpu"})
	if err != nil {
		t.Fatal(err)
	}
	_ = rt.Submit(&Task{Codelet: gpuOnly})
	if _, err := rt.Run(); err == nil || !strings.Contains(err.Error(), "no real implementation") {
		t.Fatalf("err = %v", err)
	}
}

func TestRealModeRecordsPerfModels(t *testing.T) {
	store := perfmodel.NewStore()
	rt, err := New(Config{Platform: cpuPlatform(t, 2), Models: store})
	if err != nil {
		t.Fatal(err)
	}
	cl := noopCodelet(t, "modelled")
	h := rt.NewHandle("h", 8, nil)
	_ = rt.Submit(&Task{Codelet: cl, Accesses: []Access{W(h)}, Flops: 1e6})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if store.Model("modelled", "x86").Len() != 1 {
		t.Fatal("model sample not recorded")
	}
}
