package taskrt

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/discover"
	"repro/internal/trace"
)

// modeOn returns how task t accesses handle h, if it does.
func modeOn(t *Task, h *Handle) (AccessMode, bool) {
	for _, a := range t.Accesses {
		if a.Handle == h {
			return a.Mode, true
		}
	}
	return 0, false
}

// naiveDeps derives the dependencies of accepted[i] by looking back over every
// accepted submission before it — O(n²), the definition the runtime's tables
// must agree with. The order is the task's After list, then per access the
// handle's last writer and, for a write, the handle's readers since that
// write, oldest first; a task appears once, where it first occurs.
func naiveDeps(accepted []*Task, i int) []int {
	var out []int
	add := func(d int) {
		if d >= 0 && !slices.Contains(out, d) {
			out = append(out, d)
		}
	}
	t := accepted[i]
	for _, d := range t.After {
		add(d.id)
	}
	for _, a := range t.Accesses {
		lastW := -1
		for j := i - 1; j >= 0; j-- {
			if m, ok := modeOn(accepted[j], a.Handle); ok && m.Writes() {
				lastW = j
				break
			}
		}
		add(lastW)
		if a.Mode.Writes() {
			for j := lastW + 1; j < i; j++ {
				if _, ok := modeOn(accepted[j], a.Handle); ok {
					add(j)
				}
			}
		}
	}
	return out
}

// randomTask accesses one to three distinct handles of hs, reads twice as
// often as it writes or updates, and may wait explicitly on up to two tasks
// of before.
func randomTask(rng *rand.Rand, cl *Codelet, hs []*Handle, before []*Task) *Task {
	t := &Task{Codelet: cl}
	for _, i := range rng.Perm(len(hs))[:1+rng.Intn(min(3, len(hs)))] {
		mode := [...]AccessMode{Read, Read, Write, ReadWrite}[rng.Intn(4)]
		t.Accesses = append(t.Accesses, Access{Handle: hs[i], Mode: mode})
	}
	for k := rng.Intn(3); k > 0 && len(before) > 0; k-- {
		t.After = append(t.After, before[rng.Intn(len(before))])
	}
	return t
}

// spoil turns a valid task into one Submit must reject after it has checked
// some of the task already: its accesses and After list are valid up to the
// last entry.
func spoil(rng *rand.Rand, t *Task, accepted []*Task, foreign *Handle) *Task {
	switch rng.Intn(4) {
	case 0:
		t.Accesses = append(t.Accesses, R(foreign))
	case 1:
		t.Accesses = append(t.Accesses, W(t.Accesses[0].Handle))
	case 2:
		t.After = append(t.After, &Task{Codelet: t.Codelet})
	default:
		if len(accepted) == 0 {
			t.Codelet = nil
			break
		}
		return accepted[rng.Intn(len(accepted))] // submitted twice
	}
	return t
}

// TestQuickGraphTablesMatchNaive: over random access sequences — reads,
// writes and updates on a few handles, so readers pile up between writes;
// explicit After edges; batches that fail part-way — the runtime's tables are
// the graph. After every batch, each accepted task's Deps is naiveDeps in its
// order, Dependents is the exact transpose in id order, and the rejected task
// and the rest of its batch left no row behind.
func TestQuickGraphTablesMatchNaive(t *testing.T) {
	cl := noopCodelet(t, "n")
	failures := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt, err := New(Config{Platform: cpuPlatform(t, 2)})
		if err != nil {
			t.Fatal(err)
		}
		other, err := New(Config{Platform: cpuPlatform(t, 2)})
		if err != nil {
			t.Fatal(err)
		}
		foreign := other.NewHandle("foreign", 8, nil)
		hs := make([]*Handle, 2+rng.Intn(4))
		for i := range hs {
			hs[i] = rt.NewHandle(fmt.Sprintf("h%d", i), 8, nil)
		}
		var accepted []*Task
		for b := 0; b < 12; b++ {
			batch := make([]*Task, 1+rng.Intn(6))
			for i := range batch {
				batch[i] = randomTask(rng, cl, hs, append(accepted[:len(accepted):len(accepted)], batch[:i]...))
			}
			bad := -1
			if rng.Intn(3) == 0 {
				bad = rng.Intn(len(batch))
				batch[bad] = spoil(rng, batch[bad], accepted, foreign)
			}
			err := rt.SubmitBatch(batch)
			switch {
			case bad < 0 && err != nil:
				t.Fatalf("seed %d batch %d: %v", seed, b, err)
			case bad >= 0 && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("batch task %d:", bad))):
				t.Fatalf("seed %d batch %d: task %d is invalid, SubmitBatch = %v", seed, b, bad, err)
			case bad >= 0:
				failures++
				batch = batch[:bad]
			}
			accepted = append(accepted, batch...)
			checkTables(t, fmt.Sprintf("seed %d batch %d", seed, b), rt, accepted)
		}
	}
	if failures < 100 {
		t.Fatalf("%d batches failed part-way, want at least 100", failures)
	}
}

// checkTables compares the edges of rt's graph with the naive derivation over
// accepted.
func checkTables(t *testing.T, at string, rt *Runtime, accepted []*Task) {
	t.Helper()
	g := rt.Graph()
	if rt.Tasks() != len(accepted) || len(g.Tasks()) != len(accepted) || len(accepted) > 0 && len(g.depOff) != len(accepted)+1 {
		t.Fatalf("%s: %d tasks and %d row offsets for %d accepted submissions", at, rt.Tasks(), len(g.depOff), len(accepted))
	}
	dependents := make([][]int, len(accepted))
	for i, task := range accepted {
		if task.ID() != i {
			t.Fatalf("%s: accepted task %d has id %d", at, i, task.ID())
		}
		want := naiveDeps(accepted, i)
		if got := g.Deps(task); !slices.Equal(got, want) {
			t.Fatalf("%s: task %d: Deps %v, the naive derivation %v", at, i, got, want)
		}
		for _, d := range want {
			dependents[d] = append(dependents[d], i)
		}
	}
	for i, task := range accepted {
		if got := g.Dependents(task); !slices.Equal(got, dependents[i]) {
			t.Fatalf("%s: task %d: Dependents %v, the transpose %v", at, i, got, dependents[i])
		}
	}
}

// A Task holds what its submitter wrote plus its id; what the runtime derives
// and what a run changes live in tables by id. 120 bytes is those fields.
func TestTaskSize(t *testing.T) {
	if size := unsafe.Sizeof(Task{}); size > 120 {
		t.Errorf("Task is %d bytes, want at most 120", size)
	}
}

// TestGraphIsAValue: one sealed tiled DGEMM graph (2048/256, 512 tasks) runs
// under ws and dmda on each of Figure 5's three platforms, and every report is
// the report of a graph built afresh for that run. Two runs of it started
// together report the same again: they share the graph, and a -race build
// checks that neither writes it.
func TestGraphIsAValue(t *testing.T) {
	const T, tile = 8, 256
	build := func() *Graph {
		var rt Runtime // no Config: it only builds the graph
		submitTiledGEMM(t, &rt, T, tile)
		return rt.Graph()
	}
	g := build()
	for _, platform := range []string{"xeon-1core", "xeon-cpu", "xeon-2gpu"} {
		for _, sched := range []string{"ws", "dmda"} {
			cfg := Config{Platform: discover.MustPlatform(platform), Mode: Sim, Scheduler: sched}
			want, err := Run(build(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: the shared graph reports\n%+v\na fresh build\n%+v", platform, sched, got, want)
			}
		}
	}
	cfg := Config{Platform: discover.MustPlatform("xeon-2gpu"), Mode: Sim, Scheduler: "dmda"}
	want, err := Run(build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reps [2]*Report
	var errs [2]error
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = Run(g, cfg)
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(rep, want) {
			t.Errorf("concurrent run %d reports\n%+v\na fresh build\n%+v", i, rep, want)
		}
	}
}

// A Graph holds what had been submitted when it was taken: a later Submit or
// NewHandle does not reach it, and its Deps and Dependents know nothing of the
// new task. The runtime accepts submissions after a Run, and the next Run
// includes them.
func TestGraphSnapshot(t *testing.T) {
	rt, err := New(Config{Platform: cpuPlatform(t, 2), Mode: Sim})
	if err != nil {
		t.Fatal(err)
	}
	cl := noopCodelet(t, "n")
	h := rt.NewHandle("h", 8, nil)
	first := &Task{Codelet: cl, Accesses: []Access{W(h)}, Flops: 1e6}
	if err := rt.Submit(first); err != nil {
		t.Fatal(err)
	}
	before := rt.Graph()
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	late := &Task{Codelet: cl, Accesses: []Access{R(h), W(rt.NewHandle("late", 8, nil))}, Flops: 1e6}
	if err := rt.Submit(late); err != nil {
		t.Fatalf("Submit after Run: %v", err)
	}
	if len(before.Tasks()) != 1 || len(before.Handles()) != 1 {
		t.Fatalf("the earlier graph holds %d tasks and %d handles, want 1 and 1", len(before.Tasks()), len(before.Handles()))
	}
	if before.Deps(late) != nil || before.Dependents(late) != nil || len(before.Dependents(first)) != 0 {
		t.Fatalf("the earlier graph has edges of the later task: Deps %v, Dependents %v, first's dependents %v",
			before.Deps(late), before.Dependents(late), before.Dependents(first))
	}
	after := rt.Graph()
	if deps, dependents := after.Deps(late), after.Dependents(first); !slices.Equal(deps, []int{first.ID()}) || !slices.Equal(dependents, []int{late.ID()}) {
		t.Fatalf("the later graph: late waits on %v, first is waited on by %v", deps, dependents)
	}
	again, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if again.Tasks != rep.Tasks+1 {
		t.Fatalf("the run after a Submit reports %d tasks, the one before %d", again.Tasks, rep.Tasks)
	}
}

// A dmda run without Models self-calibrates into a store of its own, and the
// store ends with the run: a second Run of the same runtime starts as cold as
// the first, so the first task each places is priced the same way.
func TestRealDmdaModelsPerRun(t *testing.T) {
	cl, err := NewCodelet("nap", Impl{Arch: "x86", Func: func(*TaskContext) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Platform: cpuPlatform(t, 2), Mode: Real, Scheduler: "dmda", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle("h", 8, nil)
	for i := 0; i < 8; i++ {
		if err := rt.Submit(&Task{Codelet: cl, Accesses: []Access{RW(h)}, Flops: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	firstPlace := func() string {
		t.Helper()
		rt.cfg.Trace = trace.New()
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range rt.cfg.Trace.Events() {
			if ev.Kind == trace.Place {
				return ev.From
			}
		}
		t.Fatal("no placement traced")
		return ""
	}
	if first, second := firstPlace(), firstPlace(); first != second {
		t.Fatalf("the first placement is priced %q in the first run and %q in the second: the run's private models outlived it", first, second)
	}
	if rt.cfg.Models != nil {
		t.Fatal("a run stored its private models into the runtime's config")
	}
}

// TestGraphRisingMatchesSortCheck holds Submit's record of the ready order to
// the scan newReadyQueue once made of every run's tasks: a graph is rising
// exactly when its tasks are not sorted by descending Priority. Priorities
// mostly fall or repeat and now and then rise; a graph is sealed after every
// submission and must keep its own answer when a later task rises, and a
// rejected task, however high its priority, changes nothing.
func TestGraphRisingMatchesSortCheck(t *testing.T) {
	cl := dgemmCodelet(t)
	desc := func(a, b *Task) int { return cmp.Compare(b.Priority, a.Priority) }
	rng := rand.New(rand.NewSource(7))
	kept := 0 // sealed graphs still sorted after a later task rose
	for trial := 0; trial < 400; trial++ {
		var rt Runtime
		var sealed []*Graph
		prio := rng.Intn(5)
		for n := rng.Intn(10); n > 0; n-- {
			if rng.Intn(4) == 0 {
				prio += 1 + rng.Intn(2)
			} else {
				prio -= rng.Intn(2)
			}
			if err := rt.Submit(&Task{Codelet: cl, Priority: prio}); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(5) == 0 {
				if rt.Submit(&Task{Priority: prio + 10}) == nil {
					t.Fatal("a task without codelet was accepted")
				}
			}
			sealed = append(sealed, rt.Graph())
		}
		for i, g := range sealed {
			if want := !slices.IsSortedFunc(g.tasks, desc); g.rising != want {
				t.Fatalf("trial %d, graph of %d tasks: rising %v, the scan says %v", trial, len(g.tasks), g.rising, want)
			}
			if !g.rising && sealed[len(sealed)-1].rising && i < len(sealed)-1 {
				kept++
			}
		}
	}
	if kept == 0 {
		t.Error("no sealed graph saw a later task rise")
	}
}
