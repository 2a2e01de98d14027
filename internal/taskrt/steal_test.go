package taskrt

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/placement"
)

// buildSkewedDmda returns a two-worker dmda dispatcher whose perfmodel makes
// worker 1 drastically slower than worker 0 at the codelet, plus the task.
func buildSkewedDmda(t *testing.T) (*dmdaDispatcher, *Task) {
	t.Helper()
	cl, err := NewCodelet("skew", Impl{Arch: "fast"}, Impl{Arch: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	models := perfmodel.NewStore()
	for _, sz := range []float64{1e6, 2e6, 4e6} {
		if err := models.Model("skew", "fast").Record(sz, sz/1e12); err != nil {
			t.Fatal(err)
		}
		if err := models.Model("skew", "slow").Record(sz, sz/1e12*1e3); err != nil {
			t.Fatal(err)
		}
	}
	task := &Task{Codelet: cl, Flops: 2e6}
	d := newDmdaDispatcher([]string{"fast", "slow"}, []int{0, 0}, [][]placement.Link{{{}}}, []*Task{task}, nil, models)
	return d, task
}

// A slow worker that wins the credit for a task placed on the fast worker
// must NOT steal it: the steal is EFT-unfavorable (the fast worker clears
// its backlog, ending with that task, far sooner). The thief hands the
// credit back — so a subsequent acquire still succeeds — and the rightful
// owner collects the task. This is the regression test for the
// placement-undone-by-blind-stealing bug the tiled-factorization experiment
// exposed (DESIGN.md §12).
func TestDmdaStealDeclinedWhenEFTUnfavorable(t *testing.T) {
	d, task := buildSkewedDmda(t)
	d.push(-1, task)
	abort := make(chan struct{})
	if !d.sem.take() {
		t.Fatal("acquire after push must succeed")
	}
	// The slow worker sweeps: it must decline and return the retry sentinel.
	got, victim := d.take(1, abort)
	if got != nil || victim != takeRetry {
		t.Fatalf("slow worker take = (%v, %d), want declined (nil, takeRetry)", got, victim)
	}
	if d.stolen(1) != 0 {
		t.Fatalf("declined sweep counted as a steal")
	}
	// The hand-back restored the credit: the owner can acquire and collect.
	if !d.sem.take() {
		t.Fatal("acquire after credit hand-back must succeed")
	}
	got, victim = d.take(0, abort)
	if got != task || victim != -1 {
		t.Fatalf("owner take = (%v, %d), want the placed task from its own queue", got, victim)
	}
}

// The liveness valve: when declines persist with zero pool-wide completion
// progress for dmdaStealForceAfter (the victim is hung, offline, or the
// model is badly wrong), the thief must eventually steal anyway rather than
// spin forever — fault-injected hangs rely on queue rescue.
func TestDmdaStealForcedAfterPoolStall(t *testing.T) {
	d, task := buildSkewedDmda(t)
	d.push(-1, task)
	abort := make(chan struct{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if !d.sem.take() {
			t.Fatal("acquire must succeed while the task is queued")
		}
		got, victim := d.take(1, abort)
		if got != nil {
			if victim != 0 {
				t.Fatalf("forced steal reported victim %d, want 0", victim)
			}
			if d.stolen(1) != 1 {
				t.Fatalf("forced steal not counted")
			}
			return
		}
		if victim != takeRetry {
			t.Fatalf("take = (nil, %d), want takeRetry while declining", victim)
		}
		if time.Now().After(deadline) {
			t.Fatal("force valve never fired: hung victim's queue was never rescued")
		}
	}
}

// The force valve is a safety valve, so it is counted: a run whose victim is
// 100× slower than its model says must move taskrt_steal_forced_total (the
// thief is declined until the pool has completed nothing for
// dmdaStealForceAfter, then steals anyway), and a healthy homogeneous run
// must not.
func TestDmdaStealForceValveIsCounted(t *testing.T) {
	sleeper := func(d time.Duration) func(*TaskContext) error {
		return func(*TaskContext) error { time.Sleep(d); return nil }
	}
	run := func(pl *core.Platform, cl *Codelet, models *perfmodel.Store, tasks int) float64 {
		t.Helper()
		rt, err := New(Config{Platform: pl, Mode: Real, Scheduler: "dmda", Models: models})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tasks; i++ {
			if err := rt.Submit(&Task{Codelet: cl, Flops: 1e6}); err != nil {
				t.Fatal(err)
			}
		}
		before := rtm.forcedSteals.Value()
		if rep, err := rt.Run(); err != nil || rep.Tasks != tasks {
			t.Fatalf("run: %v (report %+v)", err, rep)
		}
		return rtm.forcedSteals.Value() - before
	}

	// The model puts the fast worker at 0.2 ms a task and the slow one at its
	// true 5 ms, so all six tasks are placed on the fast worker and the slow
	// one's steals are declined (5 ms alone > 1.2 ms of backlog). In truth the
	// fast worker takes 20 ms: nothing completes for 10 ms and the valve opens.
	wrong, err := NewCodelet("wrong",
		Impl{Arch: "x86", Func: sleeper(20 * time.Millisecond)},
		Impl{Arch: "x86slow", Func: sleeper(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	models := perfmodel.NewStore()
	for _, sz := range []float64{5e5, 1e6, 2e6} {
		if err := models.Model("wrong", "x86").Record(sz, sz/1e6*0.2e-3); err != nil {
			t.Fatal(err)
		}
		if err := models.Model("wrong", "x86slow").Record(sz, sz/1e6*5e-3); err != nil {
			t.Fatal(err)
		}
	}
	if forced := run(heteroPlatform(t, 1), wrong, models, 6); forced < 1 {
		t.Errorf("victim 100× slower than its model: %v forced steals counted, want at least 1", forced)
	}

	healthy, err := NewCodelet("healthy", Impl{Arch: "x86", Func: sleeper(200 * time.Microsecond)})
	if err != nil {
		t.Fatal(err)
	}
	if forced := run(cpuPlatform(t, 4), healthy, nil, 64); forced != 0 {
		t.Errorf("healthy homogeneous run: %v forced steals counted, want 0", forced)
	}
}
