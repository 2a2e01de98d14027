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

	"repro/internal/core"
	"repro/internal/discover"
	"repro/internal/sim"
	"repro/internal/simhw"
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

// submitTiledGEMM submits a T×T×T tiled DGEMM of tile×tile tiles: T³ tasks,
// each C tile a chain of T updates.
func submitTiledGEMM(t testing.TB, rt *Runtime, T, tile int) {
	t.Helper()
	bytes, flops := int64(tile*tile*8), 2*float64(tile*tile*tile)
	cl := dgemmCodelet(t)
	a, b, c := make([]*Handle, T*T), make([]*Handle, T*T), make([]*Handle, T*T)
	for i := range a {
		a[i] = rt.NewHandle("A", bytes, nil)
		b[i] = rt.NewHandle("B", bytes, nil)
		c[i] = rt.NewHandle("C", bytes, nil)
	}
	for i := 0; i < T; i++ {
		for j := 0; j < T; j++ {
			for k := 0; k < T; k++ {
				if err := rt.Submit(&Task{Codelet: cl, Flops: flops,
					Accesses: []Access{R(a[i*T+k]), R(b[k*T+j]), RW(c[i*T+j])}}); err != nil {
					t.Fatal(err)
				}
			}
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

// simulate is runSim's loop over the ready set set(st) returns: the engine's
// own state and step, so only the order tasks are taken in can differ. It
// returns that order beside the report.
func simulate(rt *Runtime, set func(*simState) readySet) (*Report, []int, error) {
	g := rt.Graph()
	st, err := newSimState(g, rt.cfg)
	if err != nil {
		return nil, nil, err
	}
	defer st.flushMetrics()
	q := set(st)
	for _, t := range g.Tasks() {
		if len(g.Deps(t)) == 0 {
			q.push(t)
		}
	}
	var order []int
	for st.completed < len(g.Tasks()) {
		t := q.pop()
		order = append(order, t.id)
		if err := st.step(t, q.push); err != nil {
			return nil, order, err
		}
	}
	return st.report(), order, nil
}

// outcome is one run as the oracle tests compare it.
type outcome struct {
	order  []int
	report string // every field twice: to read, and in hex, exact for floats
	events []trace.Event
	err    string
}

// runTraced builds a traced runtime from cfg, submits build's graph and runs
// it with exec.
func runTraced(t *testing.T, cfg Config, build func(*Runtime), exec func(*Runtime) (*Report, []int, error)) outcome {
	t.Helper()
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

// againstScan runs one graph — build submits it into each run's traced
// runtime — three ways: taken from scanQueue, taken from
// readyQueue through the same loop, and through Run. The three must agree on
// the order tasks were taken in, on every field of the report (floats by
// their bits) and on every traced span; a run that fails must fail alike.
// It returns the order, nil for a failed run.
func againstScan(t *testing.T, cfg Config, build func(*Runtime)) []int {
	t.Helper()
	run := func(exec func(*Runtime) (*Report, []int, error)) outcome { return runTraced(t, cfg, build, exec) }
	scan := run(func(rt *Runtime) (*Report, []int, error) {
		return simulate(rt, func(*simState) readySet { return &scanQueue{} })
	})
	queue := run(func(rt *Runtime) (*Report, []int, error) {
		return simulate(rt, func(st *simState) readySet { return &st.ready })
	})
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

// TestReadyQueueWide drives the queue alone against scanQueue on graphs wide
// enough for one to four levels of bitmap, under both rank paths: random
// pushes of tasks not in the set and pops, every pop the task the scan takes,
// until both are empty.
func TestReadyQueueWide(t *testing.T) {
	cl := dgemmCodelet(t)
	for _, n := range []int{1, 64, 65, 4096, 4097, 262145} {
		for _, ranked := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(n)))
			var rt Runtime
			for range n {
				task := &Task{Codelet: cl}
				if ranked {
					task.Priority = rng.Intn(5) - 2
				}
				if err := rt.Submit(task); err != nil {
					t.Fatal(err)
				}
			}
			g := rt.Graph()
			q, scan := newReadyQueue(g), &scanQueue{}
			if (q.rank != nil) != (ranked && n > 1) {
				t.Fatalf("n=%d, priorities drawn %v: ranked by a sort %v", n, ranked, q.rank != nil)
			}
			in := make([]bool, n)
			for step := 0; step < 4000 || len(scan.ready) > 0; step++ {
				if step < 4000 && (len(scan.ready) == 0 || rng.Intn(3) > 0) {
					if id := rng.Intn(n); !in[id] {
						in[id] = true
						q.push(g.tasks[id])
						scan.push(g.tasks[id])
					}
					continue
				}
				if q.empty() {
					t.Fatalf("n=%d: the queue is empty, the scan holds %d", n, len(scan.ready))
				}
				got, want := q.pop(), scan.pop()
				if got != want {
					t.Fatalf("n=%d, priorities drawn %v: popped task %d, the scan takes %d", n, ranked, got.id, want.id)
				}
				in[got.id] = false
			}
			if !q.empty() {
				t.Fatalf("n=%d: the queue is not empty after the scan drained", n)
			}
		}
	}
}

// TestQuickReadyQueueMatchesScan is the differential property: on seeded
// random DAGs built to collide — colliding priorities, two work sizes, After
// edges beside the data dependencies — under a random fault plan that makes
// tasks retry, both policies take the tasks from readyQueue in the order the
// scan would have, and report the same run to the bit. The priorities are
// drawn three ways: all equal and never increasing with id, which the queue
// ranks by id, and anything, negatives included, which it ranks by a sort.
func TestQuickReadyQueueMatchesScan(t *testing.T) {
	cl := dgemmCodelet(t)
	prios := []struct {
		name     string
		identity bool // every graph takes the queue's rank-is-id path
		draw     func(rng *rand.Rand, prev int) int
	}{
		{"equal", true, func(*rand.Rand, int) int { return 0 }},
		{"non-increasing", true, func(rng *rand.Rand, prev int) int { return prev - rng.Intn(2) }},
		{"arbitrary", false, func(rng *rand.Rand, _ int) int { return rng.Intn(5) - 2 }},
	}
	sorted := 0 // graphs ranked by a sort
	f := func(seed int64, size uint8) bool {
		failed := t.Failed()
		for _, p := range prios {
			build := func(rt *Runtime) {
				rng := rand.New(rand.NewSource(seed))
				var outs []*Handle
				var tasks []*Task
				prio := rng.Intn(3)
				for n := 0; n < 8+int(size%56); n++ {
					prio = p.draw(rng, prio)
					out := rt.NewHandle("h", 1<<18, nil)
					task := &Task{
						Codelet:  cl,
						Accesses: []Access{W(out)},
						Flops:    float64(1+rng.Intn(2)) * 1e8,
						Priority: prio,
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
			var rt Runtime
			build(&rt)
			if q := newReadyQueue(rt.Graph()); q.rank != nil {
				sorted++
				if p.identity {
					t.Errorf("%s priorities: the queue ranks by a sort", p.name)
				}
			}
			for _, sched := range []string{"ws", "dmda"} {
				againstScan(t, Config{
					Platform:  discover.MustPlatform("xeon-2gpu"),
					Mode:      Sim,
					Scheduler: sched,
					Faults:    RandomFaultPlan(seed, []string{"dev0", "dev1", "host.1"}, 0.05),
					Retry:     RetryPolicy{MaxAttempts: 12},
				}, build)
			}
		}
		return failed || !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if sorted == 0 {
		t.Error("no graph took the sorted-rank path")
	}
}

// scanCands is compatibleUnits as it was before it kept its answer: every
// unit filtered afresh for every task, into a slice of its own.
func scanCands(st *simState, t *Task) []*simUnit {
	var out []*simUnit
	for _, su := range st.units {
		if !su.dead && t.Codelet.ImplFor(su.hw.Arch) != nil && (len(t.Where) == 0 || unitAllowed(su.hw.ID, t.Where)) {
			out = append(out, su)
		}
	}
	return out
}

// scanBid is how dmda picked a unit before units bid by class: every
// candidate priced alone, in unit order, the first among equals. It stays as
// the oracle the class bid is defined by.
func scanBid(st *simState, t *Task, ready sim.Time) *simUnit {
	cands := scanCands(st, t)
	if len(cands) == 0 {
		return nil
	}
	best := cands[0]
	bestEFT := st.price(t, best, ready).finish(best)
	for _, su := range cands[1:] {
		if eft := st.price(t, su, ready).finish(su); eft < bestEFT {
			best, bestEFT = su, eft
		}
	}
	return best
}

// bidCoverage counts what the class-bid property exercised.
type bidCoverage struct {
	picks  int // dmda picks checked against scanBid
	alone  int // candidates still blacklisted at the task's ready time
	deaths int // units blacklisted for good, each clearing the kept candidates
}

// simulateAgainstBid is runSim with two checks on the state every step starts
// from: compatibleUnits answers what a fresh scan of the units answers, and
// under dmda pickUnit takes the unit scanBid takes.
func simulateAgainstBid(t *testing.T, rt *Runtime, cov *bidCoverage) (*Report, []int, error) {
	g := rt.Graph()
	st, err := newSimState(g, rt.cfg)
	if err != nil {
		return nil, nil, err
	}
	defer st.flushMetrics()
	q := &st.ready
	for _, task := range g.Tasks() {
		if len(g.Deps(task)) == 0 {
			q.push(task)
		}
	}
	for st.completed < len(g.Tasks()) {
		task := q.pop()
		ready := st.tasks[task.id].readyAt
		want := scanCands(st, task)
		if got := st.compatibleUnits(task); !slices.Equal(got, want) {
			t.Errorf("%s: task %d: compatibleUnits %v, a fresh scan %v", rt.cfg.Scheduler, task.id, unitIDs(got), unitIDs(want))
		}
		if rt.cfg.Scheduler == "dmda" && len(want) > 0 {
			got, _, err := st.pickUnit(task, ready)
			if err != nil {
				return nil, nil, err
			}
			if w := scanBid(st, task, ready); got != w {
				t.Errorf("task %d at %g: the class bid picks %s, the per-unit bid %s", task.id, ready, got.hw.ID, w.hw.ID)
			}
			cov.picks++
			for _, su := range want {
				if su.downUntil > ready {
					cov.alone++
				}
			}
		}
		dead := len(st.failedUnits)
		if err := st.step(task, q.push); err != nil {
			return nil, nil, err
		}
		cov.deaths += len(st.failedUnits) - dead
	}
	return st.report(), nil, nil
}

func unitIDs(units []*simUnit) []string {
	var ids []string
	for _, su := range units {
		ids = append(ids, su.hw.ID)
	}
	return ids
}

// TestQuickClassBidMatchesPerUnit is the differential property for dmda's
// class bid and the kept candidate list: on seeded random DAGs over three
// codelets with different unit sets, a quarter of the tasks restricted by a
// random Where, under a random fault plan that mixes transient blacklisting
// (units down past a task's ready time, priced alone) with permanent deaths
// (which clear the kept candidates), on three platforms whose units fall into
// three (xeon-2gpu: eight host cores and two distinct GPUs), ten (cell-blade:
// every SPE on a memory node of its own) and two classes (gtx480), every pick
// is the unit the per-unit scan picks, and the run — report to the bit, every
// span — is the run Run makes.
func TestQuickClassBidMatchesPerUnit(t *testing.T) {
	all, err := NewCodelet("all", Impl{Arch: "x86"}, Impl{Arch: "gpu"}, Impl{Arch: "ppc"}, Impl{Arch: "spe"})
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewCodelet("host", Impl{Arch: "x86"}, Impl{Arch: "ppc", SpeedFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	accel, err := NewCodelet("accel", Impl{Arch: "gpu"}, Impl{Arch: "spe"}, Impl{Arch: "x86", SpeedFactor: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	platforms := []struct {
		name   string
		faulty []string // units the fault plans draw from
	}{
		{"xeon-2gpu", []string{"dev0", "dev1", "host.1", "host.4"}},
		{"cell-blade", []string{"ctl", "spe.2", "spe.5"}},
		{"gtx480", []string{"dev0", "host.0", "host.2"}},
	}
	var cov bidCoverage
	runs, failed := 0, 0
	f := func(seed int64, size uint8) bool {
		before := t.Failed()
		for _, p := range platforms {
			pl := discover.MustPlatform(p.name)
			m, err := simhw.FromPlatform(pl)
			if err != nil {
				t.Fatal(err)
			}
			var where []string // every unit id and every id it was expanded from
			for _, u := range m.Units {
				where = append(where, u.ID)
				if base := baseUnitID(u.ID); base != u.ID && !slices.Contains(where, base) {
					where = append(where, base)
				}
			}
			build := func(rt *Runtime) {
				rng := rand.New(rand.NewSource(seed))
				var outs []*Handle
				for n := 0; n < 8+int(size%56); n++ {
					out := rt.NewHandle("h", 1<<18, nil)
					task := &Task{
						Codelet:  []*Codelet{all, all, host, accel}[rng.Intn(4)],
						Accesses: []Access{W(out)},
						Flops:    float64(1+rng.Intn(2)) * 1e8,
					}
					if rng.Intn(4) == 0 {
						task.Codelet = all
						for range 1 + rng.Intn(3) {
							task.Where = append(task.Where, where[rng.Intn(len(where))])
						}
					}
					for _, r := range rng.Perm(n)[:min(n, rng.Intn(3))] {
						task.Accesses = append(task.Accesses, R(outs[r]))
					}
					if err := rt.Submit(task); err != nil {
						t.Fatal(err)
					}
					outs = append(outs, out)
				}
			}
			for _, sched := range []string{"ws", "dmda"} {
				cfg := Config{
					Platform:  pl,
					Mode:      Sim,
					Scheduler: sched,
					Faults:    RandomFaultPlan(seed, p.faulty, 0.05),
					Retry:     RetryPolicy{MaxAttempts: 12},
				}
				checked := runTraced(t, cfg, build, func(rt *Runtime) (*Report, []int, error) { return simulateAgainstBid(t, rt, &cov) })
				whole := runTraced(t, cfg, build, func(rt *Runtime) (*Report, []int, error) {
					rep, err := rt.Run()
					return rep, nil, err
				})
				if !reflect.DeepEqual(checked, whole) {
					t.Errorf("%s, %s: Run and the checked run disagree:\nRun:     %s %s\nchecked: %s %s",
						p.name, sched, whole.report, whole.err, checked.report, checked.err)
				}
				runs++
				if whole.err != "" {
					failed++
				}
			}
		}
		return before || !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d runs (%d failed alike), %+v", runs, failed, cov)
	if cov.picks == 0 || cov.alone == 0 || cov.deaths == 0 {
		t.Errorf("the graphs left an arm of the property unexercised: %d runs (%d failed), %+v", runs, failed, cov)
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
	const T, maxPerTask = 8, 2.0
	for _, sched := range []string{"dmda", "ws"} {
		rt, err := New(Config{Platform: discover.MustPlatform("xeon-2gpu"), Mode: Sim, Scheduler: sched})
		if err != nil {
			t.Fatal(err)
		}
		submitTiledGEMM(t, rt, T, 256)
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

// TestCheapestSourceLowestNodeAmongEquals pins cheapestSource's choice on a
// machine with equal-cost sources: a host and three devices, w1 and w3 also
// joined directly by a link that costs what the host's does, w2 only through
// the host. Among copies that cost the same the lowest node wins; a cheaper
// copy wins whatever its node.
func TestCheapestSourceLowestNodeAmongEquals(t *testing.T) {
	pl := core.NewBuilder("four").
		Master("m", core.Arch("x86")).
		Worker("w1", core.Arch("gpu")).
		Worker("w2", core.Arch("gpu")).
		Worker("w3", core.Arch("gpu")).
		Link(core.ICTypePCIe, "w1", "w3").
		MustBuild()
	var rt Runtime
	h := rt.NewHandle("h", 1<<20, nil)
	st, err := newSimState(rt.Graph(), Config{Platform: pl, Mode: Sim})
	if err != nil {
		t.Fatal(err)
	}
	defer st.flushMetrics()
	node := map[string]int{}
	for _, su := range st.units {
		node[su.hw.ID] = su.hw.MemNode
	}
	w1, w2, w3 := node["w1"], node["w2"], node["w3"]
	for _, c := range []struct {
		copies []int
		dst    int
		want   int
	}{
		{[]int{0, w1}, w3, 0},     // one bus hop each
		{[]int{w2, w1}, w3, w1},   // w1 is direct, w2 staged
		{[]int{w1, w3}, w2, w1},   // both staged through the host
		{[]int{w2, w3}, w1, w3},   // w3 is direct, w2 staged
		{[]int{0, w1, w3}, w2, 0}, // the host is direct
	} {
		row := st.copies(h)
		clear(row)
		for _, n := range c.copies {
			row[n] = true
		}
		src, secs, err := st.cheapestSource(h, c.dst)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := st.machine.TransferTime(c.want, c.dst, h.Bytes)
		if src != c.want || secs != want {
			t.Errorf("copies on %v, to node %d: source %d (%g s), want %d (%g s)", c.copies, c.dst, src, secs, c.want, want)
		}
	}
}
