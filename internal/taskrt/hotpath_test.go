package taskrt

import (
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// forkGraph is one no-op root and n-1 no-op dependents that wait on it — the
// shape whose run is nothing but dispatch.
func forkGraph(cl *Codelet, n int) []*Task {
	root := &Task{Codelet: cl, Label: "root"}
	ts := []*Task{root}
	for i := 1; i < n; i++ {
		ts = append(ts, &Task{Codelet: cl, Label: "leaf", After: []*Task{root}})
	}
	return ts
}

// chainGraph is n links of a chain whose every completion readies the next
// link and two leaves of differing priority, so each one hands dmda a
// mixed-priority batch to order.
func chainGraph(cl *Codelet, n int) []*Task {
	var ts []*Task
	var prev *Task
	for i := 0; i < n; i++ {
		link := &Task{Codelet: cl, Label: "link"}
		if prev != nil {
			link.After = []*Task{prev}
			ts = append(ts,
				&Task{Codelet: cl, Label: "hi", Priority: 1, After: []*Task{prev}},
				&Task{Codelet: cl, Label: "lo", After: []*Task{prev}})
		}
		ts = append(ts, link)
		prev = link
	}
	return ts
}

// runAllocs submits ts to a fresh two-worker runtime and runs it, returning
// the objects SubmitBatch and Run allocated per task.
func runAllocs(t *testing.T, sched string, ts []*Task) float64 {
	t.Helper()
	rt, err := New(Config{Platform: cpuPlatform(t, 2), Mode: Real, Scheduler: sched, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := rt.SubmitBatch(ts); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(ts))
}

// TestRealRunAllocations bounds what a dispatched task allocates on the real
// engine: a worker reuses one TaskContext for every call, and dmda orders a
// mixed-priority batch in the completing worker's own buffer. What remains is
// the run's tables, sized once. A TaskContext per call measured 1.05
// allocations a task under dmda and 1.27 under ws, whose steal instants also
// named their victim untraced; copying and sorting every mixed-priority batch
// added 1.0 on the chain under dmda.
func TestRealRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	const maxPerTask = 0.01
	cl := noopCodelet(t, "noop")
	for _, sched := range []string{"ws", "dmda"} {
		for _, g := range []struct {
			name  string
			build func(*Codelet, int) []*Task
			n     int
		}{
			{"fork", forkGraph, 20000},
			{"chain", chainGraph, 6667},
		} {
			runAllocs(t, sched, g.build(cl, g.n)) // the process's lazy start-up is not a run's
			perTask := runAllocs(t, sched, g.build(cl, g.n))
			t.Logf("%s %s: %.4f allocations per task", sched, g.name, perTask)
			if perTask > maxPerTask {
				t.Errorf("%s %s: %.4f allocations per task, want at most %.2f", sched, g.name, perTask, maxPerTask)
			}
		}
	}
}

// TestTaskContextPerCall checks that a reused TaskContext carries the call's
// own task and exactly its payloads — a 0-payload call after a 3-payload one
// sees none — and that under fault tolerance, where every attempt gets a
// context of its own, a kernel that keeps tc still reads its own task after
// the run.
func TestTaskContextPerCall(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Retry: RetryPolicy{MaxAttempts: 2}},
		{Faults: &FaultPlan{}},
	} {
		type call struct {
			tc    *TaskContext
			label string
		}
		var (
			mu   sync.Mutex
			kept []call
			seen = map[string]int{}
		)
		cl, err := NewCodelet("check", Impl{Arch: "x86", Func: func(tc *TaskContext) error {
			var want []any
			for _, a := range tc.Task.Accesses {
				want = append(want, a.Handle.Payload)
			}
			if !slices.Equal(tc.Data, want) {
				t.Errorf("task %s: Data = %v, want %v", tc.Task.Label, tc.Data, want)
			}
			mu.Lock()
			seen[tc.Task.Label]++
			kept = append(kept, call{tc, tc.Task.Label})
			mu.Unlock()
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Platform, cfg.Mode, cfg.Workers = cpuPlatform(t, 1), Real, 1
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 30
		for i := 0; i < n; i++ {
			task := &Task{Codelet: cl, Label: strconv.Itoa(i)}
			for j := 0; j < []int{3, 1, 0}[i%3]; j++ {
				task.Accesses = append(task.Accesses, RW(rt.NewHandle("h", 8, i*10+j)))
			}
			if err := rt.Submit(task); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if seen[strconv.Itoa(i)] != 1 {
				t.Errorf("task %d ran %d times, want once", i, seen[strconv.Itoa(i)])
			}
		}
		if !cfg.ftEnabled() {
			continue
		}
		for _, c := range kept {
			if c.tc.Task.Label != c.label {
				t.Errorf("fault tolerance on: a kept context reads task %s after the run, its call ran %s", c.tc.Task.Label, c.label)
			}
		}
	}
}

// BenchmarkDispatchFork times the dispatch-fork job — SubmitBatch and Run of
// one no-op root and 19 999 no-op dependents on two workers — under each
// dispatcher, reporting µs and allocations per task. Building the graph and
// the runtime is outside the timer. (A b.N loop: b.Loop restarts its clock at
// every StartTimer and would never end.)
func BenchmarkDispatchFork(b *testing.B) {
	const tasks = 20000
	cl := noopCodelet(b, "noop")
	pl := cpuPlatform(b, 2)
	for _, sched := range []string{"ws", "dmda"} {
		b.Run(sched, func(b *testing.B) {
			var ms runtime.MemStats
			var mallocs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ts := forkGraph(cl, tasks)
				rt, err := New(Config{Platform: pl, Mode: Real, Scheduler: sched, Workers: 2})
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				m0 := ms.Mallocs
				b.StartTimer()
				if err := rt.SubmitBatch(ts); err != nil {
					b.Fatal(err)
				}
				if _, err := rt.Run(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - m0
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*tasks), "µs/task")
			b.ReportMetric(float64(mallocs)/float64(b.N*tasks), "allocs/task")
		})
	}
}
