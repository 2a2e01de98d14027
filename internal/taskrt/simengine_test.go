package taskrt

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/discover"
	"repro/internal/trace"
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
	rep := simRun(t, "xeon-1core", "ws", 10, 2e9, 1<<20)
	want := 10 * 2e9 / (10.64 * 0.92 * 1e9)
	if math.Abs(rep.MakespanSeconds-want)/want > 0.01 {
		t.Fatalf("makespan = %g; want ~%g", rep.MakespanSeconds, want)
	}
	if rep.Mode != Sim || rep.Tasks != 10 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSimEightCoresNearLinear(t *testing.T) {
	one := simRun(t, "xeon-1core", "ws", 64, 2e9, 1<<20)
	eight := simRun(t, "xeon-cpu", "ws", 64, 2e9, 1<<20)
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
	for _, sched := range []string{"ws", "dmda"} {
		a := simRun(t, "xeon-2gpu", sched, 32, 2e9, 4<<20)
		b := simRun(t, "xeon-2gpu", sched, 32, 2e9, 4<<20)
		if a.MakespanSeconds != b.MakespanSeconds {
			t.Errorf("%s: nondeterministic makespan %g vs %g", sched, a.MakespanSeconds, b.MakespanSeconds)
		}
	}
}

func TestSimSchedulersAllComplete(t *testing.T) {
	for _, sched := range []string{"ws", "dmda"} {
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

func TestSimDmdaBeatsWSOnHeterogeneous(t *testing.T) {
	// With strong GPUs and transfer costs, cost-model scheduling should not
	// lose to cost-blind work stealing.
	dmda := simRun(t, "xeon-2gpu", "dmda", 64, 4e9, 16<<20)
	ws := simRun(t, "xeon-2gpu", "ws", 64, 4e9, 16<<20)
	if dmda.MakespanSeconds > ws.MakespanSeconds*1.05 {
		t.Fatalf("dmda (%g) much worse than ws (%g)", dmda.MakespanSeconds, ws.MakespanSeconds)
	}
}

func TestSimCoherenceWriteInvalidates(t *testing.T) {
	// One datum ping-pongs between a gpu-only and an x86-only codelet:
	// every round trip must transfer the datum both ways.
	rt, err := New(Config{Platform: discover.MustPlatform("xeon-2gpu"), Mode: Sim, Scheduler: "ws"})
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
	rt, err := New(Config{Platform: discover.MustPlatform("xeon-2gpu"), Mode: Sim, Scheduler: "ws"})
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

// TestSimPriorityOrdering reads the order a single core ran the tasks in off
// the trace: task spans on one unit start in the order they were taken.
func TestSimPriorityOrdering(t *testing.T) {
	cl := dgemmCodelet(t)
	cases := []struct {
		name  string
		build func() []*Task // in submission order
		want  []string       // labels in execution order
	}{
		{"high priority first even when submitted last", func() []*Task {
			return []*Task{
				{Codelet: cl, Flops: 1e9, Label: "low"},
				{Codelet: cl, Flops: 1e9, Priority: 10, Label: "high"},
			}
		}, []string{"high", "low"}},
		{"released late, taken ahead of every waiting lower priority", func() []*Task {
			root := &Task{Codelet: cl, Flops: 1e9, Label: "root"}
			return []*Task{
				root,
				{Codelet: cl, Flops: 1e9, Label: "low1"},
				{Codelet: cl, Flops: 1e9, Priority: 1, Label: "mid"},
				{Codelet: cl, Flops: 1e9, Label: "low2"},
				{Codelet: cl, Flops: 1e9, Priority: 10, Label: "high", After: []*Task{root}},
			}
		}, []string{"mid", "root", "high", "low1", "low2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.New()
			rt, err := New(Config{Platform: discover.MustPlatform("xeon-1core"), Mode: Sim, Scheduler: "ws", Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.SubmitBatch(tc.build()); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range tr.OfKind(trace.Task) { // sorted by start
				got = append(got, e.Label)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("execution order %v, want %v", got, tc.want)
			}
		})
	}
}

// scanPick is how runSim chose the next task before readyQueue: a linear scan
// of the ready tasks in arrival order, the highest priority and among equals
// the lowest id. It stays as the oracle the queue's order is defined by.
func scanPick(ready []*Task) int {
	best := 0
	for i, t := range ready {
		if t.Priority > ready[best].Priority ||
			(t.Priority == ready[best].Priority && t.id < ready[best].id) {
			best = i
		}
	}
	return best
}

// scanQueue is the ready set as the engine kept it then: a slice in arrival
// order, closed up by an ordered removal after every pick.
type scanQueue struct {
	ready []*Task
}

func (q *scanQueue) push(t *Task) { q.ready = append(q.ready, t) }

func (q *scanQueue) pop() *Task {
	i := scanPick(q.ready)
	t := q.ready[i]
	q.ready = append(q.ready[:i], q.ready[i+1:]...)
	return t
}

// readySet is either of the two.
type readySet interface {
	push(*Task)
	pop() *Task
}

// simulate is runSim's loop over the ready set q: the engine's own state and
// step, so only the order tasks are taken in can differ. It returns that order
// beside the report.
func simulate(rt *Runtime, q readySet) (*Report, []int, error) {
	st, err := rt.newSimState()
	if err != nil {
		return nil, nil, err
	}
	for _, t := range rt.tasks {
		if len(t.deps) == 0 {
			q.push(t)
		}
	}
	var order []int
	for st.completed < len(rt.tasks) {
		t := q.pop()
		order = append(order, t.id)
		if err := rt.simStep(st, t, q.push); err != nil {
			return nil, order, err
		}
	}
	return st.report(rt.cfg.Scheduler), order, nil
}

// againstScan runs one graph — build submits it, afresh per run since tasks
// count their own attempts — three ways: taken from scanQueue, taken from
// readyQueue through the same loop, and through Run. The three must agree on
// the order tasks were taken in, on every field of the report (floats by
// their bits) and on every traced span; a run that fails must fail alike.
// It returns the order, nil for a failed run.
func againstScan(t *testing.T, cfg Config, build func(*Runtime)) []int {
	t.Helper()
	type outcome struct {
		order  []int
		report string // every field twice: to read, and in hex, exact for floats
		events []trace.Event
		err    string
	}
	run := func(exec func(*Runtime) (*Report, []int, error)) (o outcome) {
		cfg := cfg
		cfg.Trace = trace.New()
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		build(rt)
		rep, order, err := exec(rt)
		if err != nil {
			return outcome{order: order, err: err.Error()}
		}
		return outcome{order: order, report: fmt.Sprintf("%+v %x", *rep, *rep), events: cfg.Trace.Events()}
	}
	scan := run(func(rt *Runtime) (*Report, []int, error) { return simulate(rt, &scanQueue{}) })
	queue := run(func(rt *Runtime) (*Report, []int, error) { return simulate(rt, &readyQueue{}) })
	if !reflect.DeepEqual(queue, scan) {
		t.Errorf("%s: readyQueue and the scan disagree:\nqueue took %v\nscan took  %v\nqueue: %s %s\nscan:  %s %s",
			cfg.Scheduler, queue.order, scan.order, queue.report, queue.err, scan.report, scan.err)
	}
	whole := run(func(rt *Runtime) (*Report, []int, error) {
		rep, err := rt.Run()
		return rep, scan.order, err // Run does not show its order; its spans do
	})
	if !reflect.DeepEqual(whole, scan) {
		t.Errorf("%s: Run and the scan disagree:\nRun:  %s %s\nscan: %s %s", cfg.Scheduler, whole.report, whole.err, scan.report, scan.err)
	}
	if scan.err != "" {
		return nil
	}
	return scan.order
}

// TestReadyQueueOrders spells the queue's order out on graphs small enough to
// read, under both policies, each also checked against the scan.
func TestReadyQueueOrders(t *testing.T) {
	cl := dgemmCodelet(t)
	// t0 and t1 are ready at once and release t3 and t2 in that order, so the
	// two children wait together with the larger id the earlier arrival.
	crossed := func(rt *Runtime) {
		t0 := &Task{Codelet: cl, Flops: 1e9, Priority: 9}
		t1 := &Task{Codelet: cl, Flops: 1e9, Priority: 8}
		t2 := &Task{Codelet: cl, Flops: 1e9, After: []*Task{t1}}
		t3 := &Task{Codelet: cl, Flops: 1e9, After: []*Task{t0}}
		if err := rt.SubmitBatch([]*Task{t0, t1, t2, t3}); err != nil {
			t.Fatal(err)
		}
	}
	// Three equal tasks on a core whose first attempt crashes and recovers.
	three := func(rt *Runtime) {
		for i := 0; i < 3; i++ {
			if err := rt.Submit(&Task{Codelet: cl, Flops: 1e9}); err != nil {
				t.Fatal(err)
			}
		}
	}
	crashOnce := &FaultPlan{Events: []FaultEvent{{Unit: "host", AfterTasks: 1, RecoverAfter: 1e-3}}}
	for _, tc := range []struct {
		name   string
		faults *FaultPlan
		build  func(*Runtime)
		want   []int
	}{
		{"equal priorities go by id, not by arrival", nil, crossed, []int{0, 1, 2, 3}},
		{"a retry keeps its id", crashOnce, three, []int{0, 0, 1, 2}},
	} {
		for _, sched := range []string{"ws", "dmda"} {
			cfg := Config{Platform: discover.MustPlatform("xeon-1core"), Mode: Sim, Scheduler: sched, Faults: tc.faults}
			if got := againstScan(t, cfg, tc.build); !slices.Equal(got, tc.want) {
				t.Errorf("%s, %s: tasks taken in order %v, want %v", tc.name, sched, got, tc.want)
			}
		}
	}
}

// TestQuickReadyQueueMatchesScan is the differential property: on seeded
// random DAGs built to collide — three priorities, two work sizes, After
// edges beside the data dependencies — under a random fault plan that makes
// tasks retry, both policies take the tasks from readyQueue in the order the
// scan would have, and report the same run to the bit.
func TestQuickReadyQueueMatchesScan(t *testing.T) {
	cl := dgemmCodelet(t)
	f := func(seed int64, size uint8) bool {
		build := func(rt *Runtime) {
			rng := rand.New(rand.NewSource(seed))
			var outs []*Handle
			var tasks []*Task
			for n := 0; n < 8+int(size%56); n++ {
				out := rt.NewHandle("h", 1<<18, nil)
				task := &Task{
					Codelet:  cl,
					Accesses: []Access{W(out)},
					Flops:    float64(1+rng.Intn(2)) * 1e8,
					Priority: rng.Intn(3),
				}
				// Mostly wide: half the tasks are roots.
				if n > 0 && rng.Intn(2) == 0 {
					task.Accesses = append(task.Accesses, R(outs[rng.Intn(n)]))
					if rng.Intn(2) == 0 {
						task.After = []*Task{tasks[rng.Intn(n)]}
					}
				}
				if err := rt.Submit(task); err != nil {
					t.Fatal(err)
				}
				outs, tasks = append(outs, out), append(tasks, task)
			}
		}
		failed := t.Failed()
		for _, sched := range []string{"ws", "dmda"} {
			againstScan(t, Config{
				Platform:  discover.MustPlatform("xeon-2gpu"),
				Mode:      Sim,
				Scheduler: sched,
				Faults:    RandomFaultPlan(seed, []string{"dev0", "dev1", "host.1"}, 0.05),
				Retry:     RetryPolicy{MaxAttempts: 12},
			}, build)
		}
		return failed || !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
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
	for _, sched := range []string{"dmda", "ws"} {
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
