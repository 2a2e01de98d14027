package taskrt

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/discover"
)

// dgemmCodelet is a two-variant codelet: an x86 kernel and a (sim-only) gpu
// kernel, like the paper's DGEMM with GotoBLAS and CuBLAS variants.
func dgemmCodelet(t testing.TB) *Codelet {
	t.Helper()
	c, err := NewCodelet("dgemm",
		Impl{Arch: "x86", Func: func(*TaskContext) error { return nil }},
		Impl{Arch: "gpu"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// submitTiles submits n independent GEMM-tile tasks of the given flops, each
// reading two shared inputs and writing its own output tile.
func submitTiles(t testing.TB, rt *Runtime, n int, flops float64, tileBytes int64) {
	t.Helper()
	a := rt.NewHandle("A", tileBytes, nil)
	b := rt.NewHandle("B", tileBytes, nil)
	cl := dgemmCodelet(t)
	for i := 0; i < n; i++ {
		c := rt.NewHandle("C", tileBytes, nil)
		if err := rt.Submit(&Task{
			Codelet:  cl,
			Accesses: []Access{R(a), R(b), RW(c)},
			Flops:    flops,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func simRun(t testing.TB, platform, sched string, tiles int, flops float64, bytes int64) *Report {
	t.Helper()
	rt, err := New(Config{
		Platform:  discover.MustPlatform(platform),
		Mode:      Sim,
		Scheduler: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	submitTiles(t, rt, tiles, flops, bytes)
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSimSingleCoreMakespanMatchesCalibration(t *testing.T) {
	// 10 tiles of 2 GFLOP on one 9.79 GF/s core: ~2.044 s total.
	rep := simRun(t, "xeon-1core", "eager", 10, 2e9, 1<<20)
	want := 10 * 2e9 / (10.64 * 0.92 * 1e9)
	if math.Abs(rep.MakespanSeconds-want)/want > 0.01 {
		t.Fatalf("makespan = %g; want ~%g", rep.MakespanSeconds, want)
	}
	if rep.Mode != Sim || rep.Tasks != 10 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSimEightCoresNearLinear(t *testing.T) {
	one := simRun(t, "xeon-1core", "eager", 64, 2e9, 1<<20)
	eight := simRun(t, "xeon-cpu", "eager", 64, 2e9, 1<<20)
	sp := eight.Speedup(one)
	if sp < 7.5 || sp > 8.1 {
		t.Fatalf("8-core speedup = %g; want ~8", sp)
	}
	if eight.BusyUnits() != 8 {
		t.Fatalf("busy units = %d", eight.BusyUnits())
	}
}

func TestSimGPUsBeatCPUs(t *testing.T) {
	cpu := simRun(t, "xeon-cpu", "dmda", 64, 2e9, 8<<20)
	gpu := simRun(t, "xeon-2gpu", "dmda", 64, 2e9, 8<<20)
	if gpu.MakespanSeconds >= cpu.MakespanSeconds {
		t.Fatalf("gpu platform (%g s) should beat cpu platform (%g s)",
			gpu.MakespanSeconds, cpu.MakespanSeconds)
	}
	if gpu.TasksOnArch("gpu") == 0 {
		t.Fatal("dmda placed no tasks on GPUs")
	}
	if gpu.TransferCount == 0 || gpu.TransferBytes == 0 {
		t.Fatal("GPU execution must involve transfers")
	}
	if !strings.Contains(gpu.String(), "transfers=") {
		t.Fatalf("String() = %q", gpu.String())
	}
}

func TestSimDeterminism(t *testing.T) {
	for _, sched := range []string{"eager", "dmda", "heft", "random"} {
		a := simRun(t, "xeon-2gpu", sched, 32, 2e9, 4<<20)
		b := simRun(t, "xeon-2gpu", sched, 32, 2e9, 4<<20)
		if a.MakespanSeconds != b.MakespanSeconds {
			t.Errorf("%s: nondeterministic makespan %g vs %g", sched, a.MakespanSeconds, b.MakespanSeconds)
		}
	}
}

func TestSimSchedulersAllComplete(t *testing.T) {
	for _, sched := range []string{"eager", "dmda", "heft", "random"} {
		rep := simRun(t, "xeon-2gpu", sched, 40, 2e9, 4<<20)
		if rep.Tasks != 40 {
			t.Errorf("%s: tasks = %d", sched, rep.Tasks)
		}
		total := 0
		for _, u := range rep.PerUnit {
			total += u.Tasks
		}
		if total != 40 {
			t.Errorf("%s: per-unit total = %d", sched, total)
		}
		if rep.Scheduler != sched {
			t.Errorf("scheduler label = %q", rep.Scheduler)
		}
	}
}

func TestSimDmdaBeatsRandomOnHeterogeneous(t *testing.T) {
	// With strong GPUs and transfer costs, cost-model scheduling should not
	// lose to random placement.
	dmda := simRun(t, "xeon-2gpu", "dmda", 64, 4e9, 16<<20)
	random := simRun(t, "xeon-2gpu", "random", 64, 4e9, 16<<20)
	if dmda.MakespanSeconds > random.MakespanSeconds*1.05 {
		t.Fatalf("dmda (%g) much worse than random (%g)", dmda.MakespanSeconds, random.MakespanSeconds)
	}
}

func TestSimCoherenceWriteInvalidates(t *testing.T) {
	// One datum ping-pongs between a gpu-only and an x86-only codelet:
	// every round trip must transfer the datum both ways.
	rt, err := New(Config{Platform: discover.MustPlatform("xeon-2gpu"), Mode: Sim, Scheduler: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	gpuCl, err := NewCodelet("gpu-step", Impl{Arch: "gpu"})
	if err != nil {
		t.Fatal(err)
	}
	cpuCl, err := NewCodelet("cpu-step", Impl{Arch: "x86", Func: func(*TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle("pingpong", 1<<20, nil)
	const rounds = 3
	for i := 0; i < rounds; i++ {
		if err := rt.Submit(&Task{Codelet: gpuCl, Accesses: []Access{RW(h)}, Flops: 1e6}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Submit(&Task{Codelet: cpuCl, Accesses: []Access{RW(h)}, Flops: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 6 tasks except possibly those hitting a still-valid copy
	// needs a transfer: ping-pong forces one per task.
	if rep.TransferCount != 2*rounds {
		t.Fatalf("transfers = %d; want %d", rep.TransferCount, 2*rounds)
	}
}

func TestSimReadsDoNotInvalidate(t *testing.T) {
	// After one transfer to the GPU, repeated reads need no further copies.
	rt, err := New(Config{Platform: discover.MustPlatform("xeon-2gpu"), Mode: Sim, Scheduler: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	gpuCl, err := NewCodelet("gpu-read", Impl{Arch: "gpu"})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle("shared", 1<<20, nil)
	for i := 0; i < 5; i++ {
		out := rt.NewHandle("out", 1<<10, nil)
		if err := rt.Submit(&Task{Codelet: gpuCl, Accesses: []Access{R(h), W(out)}, Flops: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	// h moves at most once per GPU (2 devices); outs are written in place.
	if rep.TransferCount > 2 {
		t.Fatalf("transfers = %d; want <= 2", rep.TransferCount)
	}
}

func TestSimNoCompatibleUnit(t *testing.T) {
	rt, err := New(Config{Platform: discover.MustPlatform("xeon-cpu"), Mode: Sim})
	if err != nil {
		t.Fatal(err)
	}
	gpuOnly, err := NewCodelet("gpu-only", Impl{Arch: "gpu"})
	if err != nil {
		t.Fatal(err)
	}
	_ = rt.Submit(&Task{Codelet: gpuOnly})
	if _, err := rt.Run(); err == nil || !strings.Contains(err.Error(), "no unit can run") {
		t.Fatalf("err = %v", err)
	}
}

func TestSimPriorityOrdering(t *testing.T) {
	// On a single core, the high-priority task runs first even when
	// submitted last.
	rt, err := New(Config{Platform: discover.MustPlatform("xeon-1core"), Mode: Sim, Scheduler: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	cl := dgemmCodelet(t)
	low := &Task{Codelet: cl, Flops: 1e9, Label: "low"}
	high := &Task{Codelet: cl, Flops: 1e9, Priority: 10, Label: "high"}
	_ = rt.Submit(low)
	_ = rt.Submit(high)
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
	// Both ran on the same unit; makespan equals the serial sum. Priority
	// correctness is observable through deterministic transfer-free order:
	// recheck via a dependent reader pattern instead.
	// (Order assertion: high priority index picked first.)
	// Simplest check: pickTaskIndex prefers priority.
	idx := rt.pickTaskIndex([]*Task{low, high}, &simState{})
	if idx != 1 {
		t.Fatalf("pickTaskIndex = %d; want the high-priority task", idx)
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := &Report{MakespanSeconds: 10}
	b := &Report{MakespanSeconds: 2}
	if got := b.Speedup(a); got != 5 {
		t.Fatalf("speedup = %g", got)
	}
	zero := &Report{}
	if zero.Speedup(a) != 0 {
		t.Fatal("zero makespan speedup should be 0")
	}
}

func TestReportHelpers(t *testing.T) {
	r := &Report{
		PerUnit: []UnitStats{
			{ID: "a", Arch: "x86", Tasks: 2, BusySeconds: 1},
			{ID: "b", Arch: "gpu", Tasks: 0},
			{ID: "c", Arch: "gpu", Tasks: 3},
		},
		MakespanSeconds: 2,
	}
	if r.BusyUnits() != 2 {
		t.Fatalf("busy units = %d", r.BusyUnits())
	}
	if got := r.TasksOnArch("gpu"); got != 3 {
		t.Fatalf("gpu tasks = %d", got)
	}
	if _, ok := r.UnitByID("c"); !ok {
		t.Fatal("UnitByID miss")
	}
	if _, ok := r.UnitByID("zz"); ok {
		t.Fatal("UnitByID false positive")
	}
	s := r.String()
	if !strings.Contains(s, "a") || strings.Contains(s, "  b ") {
		t.Fatalf("String() = %q", s)
	}
}

// TestSimRunAllocations bounds what one simulated task may allocate: the
// engine's state is tables indexed by task and handle id, sized once per run.
// A fresh map per written tile — how coherence was once kept — costs 8
// allocations a task on this graph and fails the bound; the tables cost under
// one.
func TestSimRunAllocations(t *testing.T) {
	const T, tileBytes, maxPerTask = 8, 256 * 256 * 8, 2.0
	for _, sched := range []string{"dmda", "eager"} {
		rt, err := New(Config{Platform: discover.MustPlatform("xeon-2gpu"), Mode: Sim, Scheduler: sched})
		if err != nil {
			t.Fatal(err)
		}
		// A T×T×T tiled DGEMM: 512 tasks, each C tile a chain of T updates.
		cl := dgemmCodelet(t)
		var a, b, c [T * T]*Handle
		for i := range a {
			a[i] = rt.NewHandle("A", tileBytes, nil)
			b[i] = rt.NewHandle("B", tileBytes, nil)
			c[i] = rt.NewHandle("C", tileBytes, nil)
		}
		for i := 0; i < T; i++ {
			for j := 0; j < T; j++ {
				for k := 0; k < T; k++ {
					if err := rt.Submit(&Task{Codelet: cl, Flops: 2 * 256 * 256 * 256,
						Accesses: []Access{R(a[i*T+k]), R(b[k*T+j]), RW(c[i*T+j])}}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perTask := float64(after.Mallocs-before.Mallocs) / float64(rt.Tasks())
		t.Logf("%s: %d tasks, %.2f allocations per task", sched, rt.Tasks(), perTask)
		if perTask > maxPerTask {
			t.Errorf("%s: %.2f allocations per task, want at most %.1f", sched, perTask, maxPerTask)
		}
	}
}
