package taskrt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/perfmodel"
	"repro/internal/trace"
)

// parkAll starts one goroutine per slot that parks on it and sleeps, and
// returns once every slot is marked. Each goroutine sends its index on woke
// when a pusher wakes it, or -1 when done or abort ends its sleep.
func parkAll(p sleepers, done, abort <-chan struct{}) <-chan int {
	woke := make(chan int, len(p))
	for w := range p {
		p[w].park()
		go func() {
			if p[w].sleep(done, abort) {
				woke <- w
			} else {
				woke <- -1
			}
		}()
	}
	return woke
}

// parkedCount is how many slots are marked parked.
func parkedCount(p sleepers) int {
	n := 0
	for w := range p {
		if p[w].parked.Load() {
			n++
		}
	}
	return n
}

// TestSleepersWakeBatch parks a full complement of workers, then wakes them
// for batches of tasks: a batch of n wakes min(n, parked) workers, each
// exactly once, the preferred one first.
func TestSleepersWakeBatch(t *testing.T) {
	const workers = 8
	p := newSleepers(workers)
	done := make(chan struct{})
	woke := parkAll(p, done, make(chan struct{}))

	recv := func(n int) map[int]bool {
		t.Helper()
		got := map[int]bool{}
		for i := 0; i < n; i++ {
			select {
			case w := <-woke:
				if w < 0 || got[w] {
					t.Fatalf("wake %d: worker %d (woken: %v)", i, w, got)
				}
				got[w] = true
			case <-time.After(2 * time.Second):
				t.Fatalf("only %d of %d woken workers returned", i, n)
			}
		}
		return got
	}

	p.wake(6, 3) // three tasks, one placed on worker 6
	if n := parkedCount(p); n != workers-3 {
		t.Fatalf("a batch of 3 left %d of %d workers parked, want %d", n, workers, workers-3)
	}
	if got := recv(3); !got[6] {
		t.Fatalf("woken %v: the worker the batch was placed on stayed parked", got)
	}
	p.wake(-1, workers) // more tasks than sleepers: the other five, once each
	if n := parkedCount(p); n != 0 {
		t.Fatalf("%d workers still parked after a batch wider than the sleepers", n)
	}
	if got := recv(workers - 3); got[6] {
		t.Fatalf("worker 6 woken twice")
	}
	p.wake(-1, workers) // nobody is parked: no token may be sent
	for w := range p {
		if len(p[w].wake) != 0 {
			t.Fatalf("worker %d got a token while awake", w)
		}
	}
	close(done)
}

// TestSleepersParkWakeStress races producers that push batches through a ws
// dispatcher — handing tasks to parked workers, queueing the rest and waking
// sleepers for them — against workers that take, park, look once more and
// cancel or sleep, as the real engine's loop does: no wake may be lost (every
// task is run before the deadline), every task runs exactly once, and a task
// handed over is what the owner's next take returns.
func TestSleepersParkWakeStress(t *testing.T) {
	const (
		workers   = 6
		producers = 4
		batches   = 200
		batchN    = 5
	)
	total := batches * batchN
	// The producers push from the pool's last indices: deques of their own
	// that no worker owns, which workers steal from.
	d := newStealDispatcher(workers+producers, total)
	done := make(chan struct{})
	abort := make(chan struct{})
	runs := make([]atomic.Int32, total)
	var ran, handed atomic.Int64
	take := func(w int) *Task {
		want := d.slot(w).handed.Load()
		got, _ := d.take(w, abort)
		if want != nil {
			if got != want {
				t.Errorf("worker %d: take returned %v ahead of the task handed over", w, got)
			}
			handed.Add(1)
		}
		return got
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := d.slot(w)
			for {
				task := take(w)
				if task == nil {
					s.park()
					if task = take(w); task != nil {
						s.cancel()
					} else if s.sleep(done, abort) {
						continue
					} else {
						return
					}
				}
				runs[task.id].Add(1)
				if ran.Add(1) == int64(total) {
					close(done)
				}
			}
		}()
	}
	// Let every worker find nothing and park, so the first batches are
	// handed over.
	for deadline := time.Now().Add(5 * time.Second); parkedCount(d.sleep) < workers; {
		if time.Now().After(deadline) {
			t.Fatal("workers did not park on an empty dispatcher")
		}
		time.Sleep(time.Millisecond)
	}
	var prod sync.WaitGroup
	prod.Add(producers)
	for p := 0; p < producers; p++ {
		go func() {
			defer prod.Done()
			for b := p; b < batches; b += producers {
				batch := make([]*Task, batchN)
				for i := range batch {
					batch[i] = &Task{id: b*batchN + i}
				}
				d.pushBatch(workers+p, batch)
			}
		}()
	}
	prod.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		close(abort)
		t.Fatalf("ran %d of %d tasks: a wake was lost", ran.Load(), total)
	}
	wg.Wait()
	for id := range runs {
		if n := runs[id].Load(); n != 1 {
			t.Fatalf("task %d ran %d times", id, n)
		}
	}
	if handed.Load() == 0 {
		t.Fatal("no task was handed to a parked worker")
	}
}

// TestSleepersAbortUnparks verifies parked workers return promptly on abort,
// reporting the run over.
func TestSleepersAbortUnparks(t *testing.T) {
	p := newSleepers(3)
	abort := make(chan struct{})
	woke := parkAll(p, make(chan struct{}), abort)
	close(abort)
	for i := range p {
		select {
		case w := <-woke:
			if w >= 0 {
				t.Fatalf("worker %d reported a wake on abort", w)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d parked workers did not return on abort", len(p)-i, len(p))
		}
	}
}

// TestRealWSHandOffToParkedWorker releases a dependent while the other
// worker is parked: the releaser hands it over instead of running it, and the
// hand-off is reported like the steal it replaces, from the releaser.
func TestRealWSHandOffToParkedWorker(t *testing.T) {
	var rootOn, depOn atomic.Int64
	root, err := NewCodelet("root", Impl{Arch: "x86", Func: func(tc *TaskContext) error {
		rootOn.Store(int64(tc.WorkerID))
		time.Sleep(30 * time.Millisecond) // the other worker finds nothing and parks
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewCodelet("dep", Impl{Arch: "x86", Func: func(tc *TaskContext) error {
		depOn.Store(int64(tc.WorkerID))
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	rt, err := New(Config{Platform: cpuPlatform(t, 2), Mode: Real, Scheduler: "ws", Workers: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	r := &Task{Codelet: root}
	d := &Task{Codelet: dep, After: []*Task{r}}
	if err := rt.SubmitBatch([]*Task{r, d}); err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if depOn.Load() == rootOn.Load() {
		t.Fatalf("the dependent ran on the releasing worker %d, not on the parked one", rootOn.Load())
	}
	if rep.Steals != 1 || rep.PerUnit[depOn.Load()].Steals != 1 {
		t.Errorf("steals: report %d, worker %d %d; want the hand-off counted once, on the receiver",
			rep.Steals, depOn.Load(), rep.PerUnit[depOn.Load()].Steals)
	}
	steals := 0
	for _, ev := range tr.Events() {
		if ev.Kind == trace.Steal {
			steals++
			if ev.TaskID != d.ID() || ev.From != workerUnitID(int(rootOn.Load())) {
				t.Errorf("steal event for task %d from %q, want task %d from the releaser %q",
					ev.TaskID, ev.From, d.ID(), workerUnitID(int(rootOn.Load())))
			}
		}
	}
	if steals != 1 {
		t.Errorf("%d steal events, want 1", steals)
	}
}

// TestRealDmdaWakesTheOwner is DESIGN §12's scenario: a task placed on a
// parked fast owner while a slow worker, awake because it released the task,
// declines to steal it. The publish wakes the owner first, so the owner runs
// it, with no steal and no forced steal; the third worker, parked and slow,
// is not needed.
func TestRealDmdaWakesTheOwner(t *testing.T) {
	var depOn atomic.Int64
	depOn.Store(-1)
	// lead is fast on the slow arch, so dmda places the root there; skew is
	// 1000× slower there than on the fast worker.
	lead, err := NewCodelet("lead",
		Impl{Arch: "x86", Func: func(*TaskContext) error { return nil }},
		Impl{Arch: "x86slow", Func: func(*TaskContext) error {
			time.Sleep(20 * time.Millisecond) // the other workers find nothing and park
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	ran := func(tc *TaskContext) error { depOn.Store(int64(tc.WorkerID)); return nil }
	skew, err := NewCodelet("skew", Impl{Arch: "x86", Func: ran}, Impl{Arch: "x86slow", Func: ran})
	if err != nil {
		t.Fatal(err)
	}
	models := perfmodel.NewStore()
	for _, sz := range []float64{1e6, 2e6, 4e6} {
		for _, m := range []struct {
			codelet, arch string
			secs          float64
		}{{"lead", "x86", sz / 1e9}, {"lead", "x86slow", sz / 1e12}, {"skew", "x86", sz / 1e12}, {"skew", "x86slow", sz / 1e9}} {
			if err := models.Model(m.codelet, m.arch).Record(sz, m.secs); err != nil {
				t.Fatal(err)
			}
		}
	}
	rt, err := New(Config{Platform: heteroPlatform(t, 2), Mode: Real, Scheduler: "dmda", Models: models})
	if err != nil {
		t.Fatal(err)
	}
	r := &Task{Codelet: lead, Flops: 2e6}
	if err := rt.SubmitBatch([]*Task{r, {Codelet: skew, Flops: 2e6, After: []*Task{r}}}); err != nil {
		t.Fatal(err)
	}
	before := rtm.forcedSteals.Value()
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerUnit[0].Tasks != 1 || depOn.Load() != 0 {
		t.Errorf("the fast worker ran %d tasks and the dependent ran on worker %d; want the dependent on worker 0",
			rep.PerUnit[0].Tasks, depOn.Load())
	}
	if rep.Steals != 0 {
		t.Errorf("%d steals, want 0", rep.Steals)
	}
	if forced := rtm.forcedSteals.Value() - before; forced != 0 {
		t.Errorf("%v forced steals, want 0", forced)
	}
}
