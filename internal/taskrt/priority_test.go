package taskrt

import (
	"fmt"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/placement"
)

// A batch released together must be consumed highest-priority first on an
// uncontended dmda worker: placement order is deque order, and the
// factorization submitters mark the critical chain (POTRF > TRSM > GEMM)
// with descending priorities.
func TestDmdaPushBatchOrdersByPriority(t *testing.T) {
	cl, err := NewCodelet("prio", Impl{Arch: "x86", Func: func(*TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []*Task{
		{Codelet: cl, Priority: 1, Label: "p1"},
		{Codelet: cl, Priority: 5, Label: "p5"},
		{Codelet: cl, Priority: 3, Label: "p3a"},
		{Codelet: cl, Priority: 3, Label: "p3b"},
	}
	d := newDmdaDispatcher([]string{"x86"}, []int{0}, [][]placement.Link{{{}}}, numbered(tasks), nil, nil)
	d.pushBatch(-1, append([]*Task(nil), tasks...))
	abort := make(chan struct{})
	// Equal priorities keep submission order (stable sort).
	for _, want := range []string{"p5", "p3a", "p3b", "p1"} {
		got, _, _ := d.take(0, abort)
		if got == nil || got.Label != want {
			t.Fatalf("take = %v, want %s", got, want)
		}
	}
}

// numbered gives tasks built without a runtime the dense ids a dispatcher's
// tables are indexed by, as Submit would.
func numbered(tasks []*Task) []*Task {
	for i, t := range tasks {
		t.id = i
	}
	return tasks
}

// An unprioritised batch must be placed in submission order: the k-chain of
// an accumulation graph relies on placement order matching dependency-release
// order, and sorting a flat batch would be wasted work.
func TestDmdaPushBatchKeepsOrderWithoutPriorities(t *testing.T) {
	cl, err := NewCodelet("flat", Impl{Arch: "x86", Func: func(*TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	var tasks []*Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, &Task{Codelet: cl, Label: fmt.Sprintf("t%d", i)})
	}
	d := newDmdaDispatcher([]string{"x86"}, []int{0}, [][]placement.Link{{{}}}, numbered(tasks), nil, nil)
	d.pushBatch(-1, tasks)
	abort := make(chan struct{})
	for i := 0; i < 8; i++ {
		got, _, _ := d.take(0, abort)
		if want := fmt.Sprintf("t%d", i); got == nil || got.Label != want {
			t.Fatalf("take %d = %v, want %s", i, got, want)
		}
	}
}

// On an exact expected-finish-time tie, a prioritised task must land on the
// architecture that executes it faster — the chain's next dependency
// releases sooner — regardless of where the rotation cursor starts the scan.
func TestDmdaPriorityTieBreaksTowardFasterArch(t *testing.T) {
	cl, err := NewCodelet("tie", Impl{Arch: "fast"}, Impl{Arch: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	models := perfmodel.NewStore()
	for _, sz := range []float64{1e6, 2e6, 4e6} {
		if err := models.Model("tie", "fast").Record(sz, sz/1e12); err != nil {
			t.Fatal(err)
		}
		if err := models.Model("tie", "slow").Record(sz, sz/1e12*3); err != nil {
			t.Fatal(err)
		}
	}
	task := &Task{Codelet: cl, Flops: 2e6, Priority: 1}
	d := newDmdaDispatcher([]string{"fast", "slow"}, []int{0, 0}, [][]placement.Link{{{}}}, []*Task{task}, nil, models)
	estFast := d.predFor(task).estimate(d.workers[0].archIdx, task.Flops).nanos
	estSlow := d.predFor(task).estimate(d.workers[1].archIdx, task.Flops).nanos
	if estFast <= 0 || estSlow <= estFast {
		t.Fatalf("model estimates fast=%d slow=%d, want 0 < fast < slow", estFast, estSlow)
	}
	// place pushes the task behind backlogs that make both EFTs exactly
	// equal and returns the worker whose queue it landed on.
	place := func() int {
		d.workers[0].outstanding.Store(estSlow - estFast)
		d.workers[1].outstanding.Store(0)
		d.push(-1, task)
		for w := range d.workers {
			if d.workers[w].q.steal() == task {
				return w
			}
		}
		t.Fatal("pushed task is on no queue")
		return -1
	}
	// Every push advances the scan's start: the hint must win from both
	// starting points.
	for i := 0; i < 4; i++ {
		if w := place(); w != 0 {
			t.Fatalf("call %d: prioritised task tied on EFT placed on slow worker", i)
		}
	}
	// Without the hint the tie falls to the rotation: both workers must be
	// reachable (the hint is strictly a tie-break, not a fast-arch magnet).
	task.Priority = 0
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[place()] = true
	}
	if !seen[1] {
		t.Fatal("unprioritised tie never reached the slow worker: tie-break is no longer rotation-spread")
	}
}
