package taskrt

import (
	"cmp"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// buildRandomDAGTasks generates the same layered pseudo-random graph as
// buildRandomDAGWith but returns the tasks unsubmitted, so tests can hand the
// whole graph to SubmitBatch.
func buildRandomDAGTasks(rt *Runtime, cl *Codelet, seed int64, layers, width int) []*Task {
	rng := rand.New(rand.NewSource(seed))
	var prev []*Handle
	var out []*Task
	for l := 0; l < layers; l++ {
		var cur []*Handle
		for w := 0; w < width; w++ {
			h := rt.NewHandle("h", 1<<18, nil)
			cur = append(cur, h)
			accesses := []Access{W(h)}
			if len(prev) > 0 {
				n := 1 + rng.Intn(3)
				seen := map[int]bool{}
				for k := 0; k < n; k++ {
					i := rng.Intn(len(prev))
					if seen[i] {
						continue
					}
					seen[i] = true
					accesses = append(accesses, R(prev[i]))
				}
			}
			out = append(out, &Task{
				Codelet:  cl,
				Accesses: accesses,
				Flops:    float64(1+rng.Intn(4)) * 1e8,
			})
		}
		prev = cur
	}
	return out
}

func TestSubmitBatchLifecycle(t *testing.T) {
	cl, err := NewCodelet("noop", Impl{Arch: "x86", Func: func(*TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Platform: cpuPlatform(t, 1), Mode: Real, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SubmitBatch([]*Task{{Codelet: cl}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	err = rt.SubmitBatch([]*Task{{Codelet: cl}})
	if err == nil || !strings.Contains(err.Error(), "Submit after Run") {
		t.Fatalf("SubmitBatch after Run = %v, want lifecycle error", err)
	}
}

// A failing task is reported by its batch index, and — matching sequential
// Submit semantics — tasks before it stay registered.
func TestSubmitBatchErrorIndex(t *testing.T) {
	cl, err := NewCodelet("noop", Impl{Arch: "x86", Func: func(*TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Platform: cpuPlatform(t, 1), Mode: Real, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := []*Task{{Codelet: cl}, {Codelet: cl}, {Codelet: nil}}
	err = rt.SubmitBatch(batch)
	if err == nil || !strings.Contains(err.Error(), "batch task 2") {
		t.Fatalf("SubmitBatch = %v, want error naming batch task 2", err)
	}
	if rt.Tasks() != 2 {
		t.Fatalf("tasks registered = %d, want the 2 preceding the failure", rt.Tasks())
	}
}

// Intra-batch dependency derivation matches sequential Submit: later batch
// entries depend on earlier ones through shared handles and After.
func TestSubmitBatchIntraBatchDeps(t *testing.T) {
	cl, err := NewCodelet("noop", Impl{Arch: "x86", Func: func(*TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Platform: cpuPlatform(t, 1), Mode: Real, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle("h", 8, nil)
	producer := &Task{Codelet: cl, Accesses: []Access{W(h)}}
	reader := &Task{Codelet: cl, Accesses: []Access{R(h)}}
	explicit := &Task{Codelet: cl, After: []*Task{producer}}
	if err := rt.SubmitBatch([]*Task{producer, reader, explicit}); err != nil {
		t.Fatal(err)
	}
	wantDep := func(t2 *Task, name string) {
		t.Helper()
		deps := rt.Deps(t2)
		if len(deps) != 1 || deps[0] != producer.ID() {
			t.Fatalf("%s deps = %v, want exactly the producer", name, deps)
		}
	}
	wantDep(reader, "reader")
	wantDep(explicit, "explicit")
}

// Property: a random DAG submitted as one batch executes every task exactly
// once, in dependency order, on every real-engine scheduler. Each kernel
// asserts its dependencies already completed before it starts — a dispatcher
// that released a task early, lost one, or double-ran one fails here, and the
// run doubles as a -race exercise of the batched push paths.
func TestQuickRealBatchExactlyOnceOrdered(t *testing.T) {
	for _, sched := range []string{"ws", "dmda"} {
		for _, seed := range []int64{1, 2, 3} {
			var mu sync.Mutex
			var rt *Runtime
			counts := map[*Task]int{}
			done := map[*Task]*atomic.Bool{}
			violations := atomic.Int64{}
			cl, err := NewCodelet("batch", Impl{Arch: "x86", Func: func(tc *TaskContext) error {
				for _, dep := range rt.Deps(tc.Task) {
					if !done[rt.tasks[dep]].Load() {
						violations.Add(1)
					}
				}
				time.Sleep(100 * time.Microsecond)
				mu.Lock()
				counts[tc.Task]++
				mu.Unlock()
				done[tc.Task].Store(true)
				return nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			rt, err = New(Config{
				Platform:  cpuPlatform(t, 4),
				Mode:      Real,
				Scheduler: sched,
				Workers:   4,
			})
			if err != nil {
				t.Fatal(err)
			}
			batch := buildRandomDAGTasks(rt, cl, seed, 4, 6)
			if err := rt.SubmitBatch(batch); err != nil {
				t.Fatal(err)
			}
			for _, task := range batch {
				done[task] = &atomic.Bool{}
			}
			rep, err := rt.Run()
			if err != nil {
				t.Fatalf("%s seed %d: %v", sched, seed, err)
			}
			if rep.Scheduler != sched {
				t.Fatalf("%s seed %d: report names scheduler %q", sched, seed, rep.Scheduler)
			}
			if rep.Tasks != len(batch) {
				t.Fatalf("%s seed %d: report says %d tasks, submitted %d", sched, seed, rep.Tasks, len(batch))
			}
			if len(counts) != len(batch) {
				t.Fatalf("%s seed %d: %d distinct tasks executed, want %d", sched, seed, len(counts), len(batch))
			}
			for task, n := range counts {
				if n != 1 {
					t.Errorf("%s seed %d: task %d executed %d times", sched, seed, task.ID(), n)
				}
			}
			if v := violations.Load(); v != 0 {
				t.Errorf("%s seed %d: %d tasks started before a dependency finished", sched, seed, v)
			}
		}
	}
}

// Both engines implement ws and dmda and nothing else: in either mode New
// admits those two and "" (which runs ws), and refuses every other name —
// the policies the sim once had alone among them — with one message naming
// the two it has.
func TestSchedulerVocabulary(t *testing.T) {
	var rejection string // the message with the refused name cut out
	for _, mode := range []Mode{Sim, Real} {
		for _, sched := range []string{"", "ws", "dmda"} {
			rt, err := New(Config{Platform: cpuPlatform(t, 2), Mode: mode, Scheduler: sched})
			if err != nil {
				t.Fatalf("%v %q: %v", mode, sched, err)
			}
			if err := rt.Submit(&Task{Codelet: noopCodelet(t, "noop"), Flops: 1e6}); err != nil {
				t.Fatal(err)
			}
			rep, err := rt.Run()
			if err != nil {
				t.Fatalf("%v %q: %v", mode, sched, err)
			}
			if want := cmp.Or(sched, "ws"); rep.Scheduler != want {
				t.Errorf("%v %q: report names scheduler %q, want %q", mode, sched, rep.Scheduler, want)
			}
		}
		for _, sched := range []string{"eager", "heft", "random", "bogus"} {
			_, err := New(Config{Platform: cpuPlatform(t, 2), Mode: mode, Scheduler: sched})
			if err == nil || !strings.Contains(err.Error(), `"ws"`) || !strings.Contains(err.Error(), `"dmda"`) {
				t.Fatalf("%v %s: err = %v, want a rejection naming ws and dmda", mode, sched, err)
			}
			msg := strings.Replace(err.Error(), strconv.Quote(sched), "", 1)
			if rejection == "" {
				rejection = msg
			} else if msg != rejection {
				t.Errorf("%v %s: rejected with %q, others with %q", mode, sched, err, rejection)
			}
		}
	}
}
