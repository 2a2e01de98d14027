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

// TestRealLastTaskOnEachWorker checks that a run ends exactly when its last
// task resolves, whichever worker resolves it. A worker adds the successes it
// counted to the run's unresolved count only before it parks, when it fails
// and when it exits, so the last of those additions must reach zero. Where
// the graph has a task for every worker, the kernel forces the last
// resolution onto worker last: its first task waits until every other
// kernel has run, and the other workers wait until it holds that task.
func TestRealLastTaskOnEachWorker(t *testing.T) {
	for _, sched := range []string{"ws", "dmda"} {
		for workers := 1; workers <= 4; workers++ {
			for _, n := range []int{0, 1, 200} {
				for last := 0; last < workers; last++ {
					name := fmt.Sprintf("%s/%dw/%dtasks/last%d", sched, workers, n, last)
					t.Run(name, func(t *testing.T) {
						lastTaskOn(t, sched, workers, n, last)
					})
				}
			}
		}
	}
}

func lastTaskOn(t *testing.T, sched string, workers, n, last int) {
	force := workers > 1 && n >= workers
	var (
		held   atomic.Bool
		ran    atomic.Int64
		lastOn atomic.Int64
		runs   = make([]atomic.Int32, n)
	)
	cl, err := NewCodelet("last", Impl{Arch: "x86", Func: func(tc *TaskContext) error {
		if force && tc.WorkerID == last {
			held.Store(true)
			for ran.Load() < int64(n-1) {
				time.Sleep(20 * time.Microsecond)
			}
		} else if force {
			for !held.Load() {
				time.Sleep(20 * time.Microsecond)
			}
		}
		runs[tc.Task.ID()].Add(1)
		if ran.Add(1) == int64(n) {
			lastOn.Store(int64(tc.WorkerID))
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	// A warm model prices every task, so a dmda thief finds stealing from
	// the held worker's queue pays and needs no stall valve.
	models := perfmodel.NewStore()
	for _, sz := range []float64{1e5, 1e6, 1e7} {
		if err := models.Model("last", "x86").Record(sz, sz/1e11); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := New(Config{Platform: cpuPlatform(t, workers), Mode: Real, Scheduler: sched, Workers: workers, Models: models})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := rt.Submit(&Task{Codelet: cl, Flops: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	type result struct {
		rep *Report
		err error
	}
	res := make(chan result, 1)
	go func() {
		rep, err := rt.Run()
		res <- result{rep, err}
	}()
	var r result
	select {
	case r = <-res:
	case <-time.After(10 * time.Second):
		t.Fatalf("Run did not return after its %d tasks", n)
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Errorf("task %d ran %d times, want once", i, got)
		}
	}
	sum := 0
	for _, u := range r.rep.PerUnit {
		sum += u.Tasks
	}
	if sum != r.rep.Tasks || r.rep.Tasks != n {
		t.Errorf("Σ PerUnit.Tasks = %d, Report.Tasks = %d, want both %d", sum, r.rep.Tasks, n)
	}
	if force && lastOn.Load() != int64(last) {
		t.Errorf("the last task resolved on worker %d, want %d", lastOn.Load(), last)
	}
}

// TestRealColdDmdaStealsFromHeldWorker holds a cold dmda run's first task on
// its worker until every other task has run. Nothing was known when the seeds
// were placed, so each carries no charge and the idle worker must steal the
// held worker's queue at once: a thief that held such tasks to the EFT check
// declined every one (a zero backlog is never beaten) and waited out the
// stall valve for each, 99 forced steals and ≈ 1 s.
func TestRealColdDmdaStealsFromHeldWorker(t *testing.T) {
	const n = 200
	var (
		held atomic.Bool
		ran  atomic.Int64
	)
	cl, err := NewCodelet("held", Impl{Arch: "x86", Func: func(*TaskContext) error {
		if held.CompareAndSwap(false, true) {
			for ran.Load() < n-1 {
				time.Sleep(20 * time.Microsecond)
			}
		}
		ran.Add(1)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Platform: cpuPlatform(t, 2), Mode: Real, Scheduler: "dmda", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := rt.Submit(&Task{Codelet: cl}); err != nil {
			t.Fatal(err)
		}
	}
	before := rtm.forcedSteals.Value()
	start := time.Now()
	rep, err := rt.Run()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if forced := rtm.forcedSteals.Value() - before; forced != 0 {
		t.Errorf("%v forced steals, want 0: the thief declined tasks placed with no charge", forced)
	}
	if rep.Steals == 0 {
		t.Error("no steal: the idle worker never took the held worker's queue")
	}
	if elapsed >= 100*time.Millisecond {
		t.Errorf("run took %v, want < 100ms", elapsed)
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

// TestRealExecutionMissingImplMixedCodelets checks each distinct codelet of
// a mixed graph against every worker arch: the one that lacks an arch fails
// the run with the message that names both, wherever its tasks sit.
func TestRealExecutionMissingImplMixedCodelets(t *testing.T) {
	rt, err := New(Config{Platform: heteroPlatform(t, 1), Mode: Real})
	if err != nil {
		t.Fatal(err)
	}
	nop := func(*TaskContext) error { return nil }
	both, err := NewCodelet("both", Impl{Arch: "x86", Func: nop}, Impl{Arch: "x86slow", Func: nop})
	if err != nil {
		t.Fatal(err)
	}
	fastOnly, err := NewCodelet("fast-only", Impl{Arch: "x86", Func: nop})
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range []*Codelet{both, both, fastOnly, both, fastOnly} {
		if err := rt.Submit(&Task{Codelet: cl}); err != nil {
			t.Fatal(err)
		}
	}
	want := `taskrt: codelet "fast-only" has no real implementation for worker arch "x86slow"`
	if _, err := rt.Run(); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
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
