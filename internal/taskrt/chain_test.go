package taskrt

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/trace"
)

// sleepCodelet's kernel sleeps d and adds what it measured to ran.
func sleepCodelet(t *testing.T, name string, d time.Duration, ran *atomic.Int64) *Codelet {
	t.Helper()
	f := func(*TaskContext) error {
		t0 := time.Now()
		time.Sleep(d)
		ran.Add(int64(time.Since(t0)))
		return nil
	}
	cl, err := NewCodelet(name, Impl{Arch: "x86", Func: f}, Impl{Arch: "x86slow", Func: f})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// busySeconds is the report's BusySeconds summed over its units.
func busySeconds(rep *Report) float64 {
	busy := 0.0
	for _, u := range rep.PerUnit {
		busy += u.BusySeconds
	}
	return busy
}

// TestRealChainedTaskTimes runs independent tasks that each sleep 1 ms on one
// worker, untraced and without fault tolerance: none releases anything, so
// each task after the first starts at the last one's end. Every recorded
// duration (dmda's history, read from the model store) still covers its
// kernel, and together they are the worker's BusySeconds, which the makespan
// holds.
func TestRealChainedTaskTimes(t *testing.T) {
	const links = 20
	var ran atomic.Int64
	cl := sleepCodelet(t, "sleep", time.Millisecond, &ran)
	models := perfmodel.NewStore()
	rt, err := New(Config{Platform: cpuPlatform(t, 1), Mode: Real, Workers: 1, Models: models})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < links; i++ {
		if err := rt.Submit(&Task{Codelet: cl, Flops: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	samples := models.Model("sleep", "x86").Samples
	if len(samples) != links {
		t.Fatalf("%d recorded durations, want %d", len(samples), links)
	}
	sum := 0.0
	for i, s := range samples {
		if s.Seconds < 1e-3 {
			t.Errorf("task %d: recorded %.6f s, less than its kernel's 1 ms sleep", i, s.Seconds)
		}
		sum += s.Seconds
	}
	busy := busySeconds(rep)
	if sum > busy+1e-9 || busy > rep.MakespanSeconds {
		t.Errorf("recorded %.6f s, busy %.6f s, makespan %.6f s: want recorded ≤ busy ≤ makespan",
			sum, busy, rep.MakespanSeconds)
	}
}

// TestRealParkNotInTaskTime parks a worker between two of its tasks: one
// worker sleeps 30 ms in L while the other runs the no-op seeds and parks,
// and L's dependent is handed to the parked one. The dependent's start is
// read when it runs, so the run's busy time is its kernels' and not the park.
func TestRealParkNotInTaskTime(t *testing.T) {
	var ran atomic.Int64
	long := sleepCodelet(t, "long", 30*time.Millisecond, &ran)
	noop := sleepCodelet(t, "noop", 0, &ran)
	rt, err := New(Config{Platform: cpuPlatform(t, 2), Mode: Real, Scheduler: "ws", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := &Task{Codelet: long}
	ts := []*Task{l}
	for i := 0; i < 8; i++ {
		ts = append(ts, &Task{Codelet: noop})
	}
	ts = append(ts, &Task{Codelet: noop, After: []*Task{l}})
	if err := rt.SubmitBatch(ts); err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	kernels := time.Duration(ran.Load()).Seconds()
	if busy := busySeconds(rep); busy > kernels+10e-3 {
		t.Errorf("busy %.6f s, kernels %.6f s: a park was counted as a task's time", busy, kernels)
	}
}

// TestRealDmdaNapNotInTaskTime has a slow worker decline, nap and then take a
// task: it completes a no-op that releases nothing, then finds only a task
// dmda placed on the fast worker, which is in a 30 ms kernel, and declines to
// steal it until the stall valve forces the steal after dmdaStealForceAfter of
// naps. The stolen task's start is read after the naps, so the slow worker's
// busy time is its no-ops'.
func TestRealDmdaNapNotInTaskTime(t *testing.T) {
	var ran atomic.Int64
	hold := sleepCodelet(t, "hold", 30*time.Millisecond, &ran)
	lead := sleepCodelet(t, "lead", 0, &ran)
	skew := sleepCodelet(t, "skew", 0, &ran)
	// hold and skew are fast on the fast worker and 1000× slower on the slow
	// one; lead is the other way round.
	models := perfmodel.NewStore()
	for _, sz := range []float64{1e6, 2e6, 4e6} {
		for _, m := range []struct {
			codelet, arch string
			secs          float64
		}{
			{"hold", "x86", sz / 1e12}, {"hold", "x86slow", sz / 1e9},
			{"skew", "x86", sz / 1e12}, {"skew", "x86slow", sz / 1e9},
			{"lead", "x86", sz / 1e9}, {"lead", "x86slow", sz / 1e12},
		} {
			if err := models.Model(m.codelet, m.arch).Record(sz, m.secs); err != nil {
				t.Fatal(err)
			}
		}
	}
	rt, err := New(Config{Platform: heteroPlatform(t, 1), Mode: Real, Scheduler: "dmda", Models: models})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SubmitBatch([]*Task{
		{Codelet: hold, Flops: 2e6}, {Codelet: lead, Flops: 2e6}, {Codelet: skew, Flops: 2e6},
	}); err != nil {
		t.Fatal(err)
	}
	before := rtm.forcedSteals.Value()
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if forced := rtm.forcedSteals.Value() - before; forced != 1 || rep.PerUnit[1].Tasks != 2 {
		t.Fatalf("%v forced steals, %d tasks on the slow worker: want the slow worker to nap, then steal skew",
			forced, rep.PerUnit[1].Tasks)
	}
	if busy := rep.PerUnit[1].BusySeconds; busy > 5e-3 {
		t.Errorf("the slow worker was busy %.6f s running two no-ops: its naps were counted as a task's time", busy)
	}
}

// TestRealFaultNotInTaskTime injects a fault that takes the only worker out
// of the pool for 30 ms before it runs the rest of its tasks. A run with
// fault tolerance reads every start afresh, so the time out is no task's.
func TestRealFaultNotInTaskTime(t *testing.T) {
	var ran atomic.Int64
	noop := sleepCodelet(t, "noop", 0, &ran)
	rt, err := New(Config{
		Platform: cpuPlatform(t, 1), Mode: Real, Workers: 1,
		Faults: &FaultPlan{Events: []FaultEvent{{Unit: "worker0", AfterTasks: 3, RecoverAfter: 0.03}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := rt.Submit(&Task{Codelet: noop}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedAttempts != 1 || rep.MakespanSeconds < 0.03 {
		t.Fatalf("%d failed attempts in %.6f s: want the one fault and its 30 ms out of the pool",
			rep.FailedAttempts, rep.MakespanSeconds)
	}
	if busy := busySeconds(rep); busy > 10e-3 {
		t.Errorf("busy %.6f s running six no-ops: the time out of the pool was counted as a task's", busy)
	}
}

// TestRealTaskSecondsFlushed holds taskrt_task_seconds{unit} to the report
// once Run returns: per unit, the count grows by the unit's Tasks and the sum
// by its BusySeconds, though each worker observes into a buffer of its own.
// A worker that never parks flushes the buffer every histFlushEvery tasks, so
// a kernel sees the tasks before it counted at most that many late.
func TestRealTaskSecondsFlushed(t *testing.T) {
	noop := noopCodelet(t, "noop")
	type totals struct {
		n   uint64
		sum float64
	}
	read := func(id string) totals {
		h := rtm.taskSeconds.With(id)
		return totals{h.Count(), h.Sum()}
	}
	for _, sched := range []string{"ws", "dmda"} {
		rt, err := New(Config{Platform: cpuPlatform(t, 2), Mode: Real, Scheduler: sched, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SubmitBatch(forkGraph(noop, 2000)); err != nil {
			t.Fatal(err)
		}
		before := []totals{read("worker0"), read("worker1")}
		rep, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range rep.PerUnit {
			got := read(u.ID)
			if n := got.n - before[i].n; n != uint64(u.Tasks) {
				t.Errorf("%s %s: count grew by %d, the unit ran %d tasks", sched, u.ID, n, u.Tasks)
			}
			if sum := got.sum - before[i].sum; sum < u.BusySeconds-1e-9 || sum > u.BusySeconds+1e-9 {
				t.Errorf("%s %s: sum grew by %g, the unit was busy %g s", sched, u.ID, sum, u.BusySeconds)
			}
		}
	}

	// A one-worker chain never parks: only the every-histFlushEvery flush
	// publishes its tasks while it runs.
	const links = 2*histFlushEvery + 10
	h := rtm.taskSeconds.With("worker0")
	start := h.Count()
	var done atomic.Int64 // links whose kernel ran
	check, err := NewCodelet("check", Impl{Arch: "x86", Func: func(*TaskContext) error {
		k := done.Add(1) - 1 // tasks completed before this one
		if seen := int64(h.Count() - start); seen < k-histFlushEvery {
			t.Errorf("link %d: the histogram counts %d of the %d tasks before it", k, seen, k)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Platform: cpuPlatform(t, 1), Mode: Real, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var prev *Task
	for i := 0; i < links; i++ {
		task := &Task{Codelet: check}
		if prev != nil {
			task.After = []*Task{prev}
		}
		if err := rt.Submit(task); err != nil {
			t.Fatal(err)
		}
		prev = task
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if n := h.Count() - start; n != links {
		t.Errorf("the chain's count grew by %d, want %d", n, links)
	}

	// Run waits for every worker to exit, so the order inside flush is held
	// here at the moment the run would end: this run's done is already
	// closed, so the flush that brings pending to zero panics as it closes
	// it. The worker's observations must be in the shared histogram by then.
	shared := metrics.New().Histogram("probe_seconds", "", taskSecondsBuckets)
	run := &realRun{done: make(chan struct{})}
	close(run.done)
	run.pending.Store(3)
	w := &realWorker{r: run, hist: shared.Local(), resolved: 3}
	for i := 0; i < 3; i++ {
		w.hist.Observe(1e-6)
	}
	func() {
		defer func() { _ = recover() }()
		w.flush()
	}()
	if n := shared.Count(); n != 3 {
		t.Errorf("the flush that ended the run had published %d of its 3 observations", n)
	}
}

// TestRealTraceSpansStartAtKernel: a traced run reads every task's start
// when its kernel is about to run, so on one worker no Task span starts
// where the one before it ended — completing that task and taking the next
// lie between them, though neither released anything — and each covers its
// kernel's 1 ms sleep.
func TestRealTraceSpansStartAtKernel(t *testing.T) {
	var ran atomic.Int64
	cl := sleepCodelet(t, "sleep", time.Millisecond, &ran)
	tr := trace.New()
	rt, err := New(Config{Platform: cpuPlatform(t, 1), Mode: Real, Workers: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := rt.Submit(&Task{Codelet: cl}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	spans := tr.OfKind(trace.Task)
	if len(spans) != 20 {
		t.Fatalf("%d task spans, want 20", len(spans))
	}
	for i, e := range spans {
		if e.End-e.Start < 1e-3 {
			t.Errorf("span %d lasts %.6f s, less than its kernel's sleep", i, e.End-e.Start)
		}
		if i > 0 && e.Start <= spans[i-1].End {
			t.Errorf("span %d starts at %.9f s, where span %d ended: its start was not read at its kernel",
				i, e.Start, i-1)
		}
	}
}

// TestRealReleaseNotInTaskTime runs a root that releases 5 000 dependents on
// one dmda worker. Placing them lies between the root's kernel and the first
// dependent's, and the dependent's start is read after it, so its recorded
// duration (its model sample) holds its own no-op kernel, not the release.
func TestRealReleaseNotInTaskTime(t *testing.T) {
	var rootEnd, firstLeaf atomic.Int64
	root, err := NewCodelet("root", Impl{Arch: "x86", Func: func(*TaskContext) error {
		rootEnd.Store(time.Now().UnixNano())
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := NewCodelet("leaf", Impl{Arch: "x86", Func: func(*TaskContext) error {
		firstLeaf.CompareAndSwap(0, time.Now().UnixNano())
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	models := perfmodel.NewStore()
	rt, err := New(Config{Platform: cpuPlatform(t, 1), Mode: Real, Scheduler: "dmda", Workers: 1, Models: models})
	if err != nil {
		t.Fatal(err)
	}
	r := &Task{Codelet: root, Flops: 1e6}
	ts := []*Task{r}
	for i := 0; i < 5000; i++ {
		ts = append(ts, &Task{Codelet: leaf, Flops: 1e6, After: []*Task{r}})
	}
	if err := rt.SubmitBatch(ts); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	gap := time.Duration(firstLeaf.Load() - rootEnd.Load()).Seconds()
	first := models.Model("leaf", "x86").Samples[0].Seconds
	if gap <= 0 || first > gap/2 {
		t.Errorf("the first dependent recorded %.6f s; the release before its kernel took %.6f s of it", first, gap)
	}
}
