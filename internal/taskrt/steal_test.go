package taskrt

import (
	"testing"
	"time"

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
	d := newDmdaDispatcher([]string{"fast", "slow"}, []int{0, 0}, [][]placement.Link{{{}}}, []*Task{task}, models)
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
	if !d.acquire(nil, nil) {
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
	if !d.acquire(nil, nil) {
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
		if !d.acquire(nil, nil) {
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
