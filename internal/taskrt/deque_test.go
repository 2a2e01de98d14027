package taskrt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// taskTable is n tasks with ids 0..n-1, the table a deque resolves ids
// through.
func taskTable(n int) []*Task {
	ts := make([]*Task, n)
	for i := range ts {
		ts[i] = &Task{id: i}
	}
	return ts
}

func TestWSDequeOrdering(t *testing.T) {
	tasks := taskTable(5)
	d := newWSDeque(tasks)
	for _, task := range tasks {
		d.push(task)
	}
	// Owner pops LIFO: most recent first.
	if got := d.pop(); got != tasks[4] {
		t.Fatalf("pop = task %d, want 4", got.id)
	}
	// Thief steals FIFO: oldest first.
	if got := d.steal(); got != tasks[0] {
		t.Fatalf("steal = task %d, want 0", got.id)
	}
	if got := d.steal(); got != tasks[1] {
		t.Fatalf("steal = task %d, want 1", got.id)
	}
	if got := d.pop(); got != tasks[3] {
		t.Fatalf("pop = task %d, want 3", got.id)
	}
	if got := d.pop(); got != tasks[2] {
		t.Fatalf("pop = task %d, want 2", got.id)
	}
	if d.pop() != nil || d.steal() != nil {
		t.Fatal("drained deque must return nil")
	}
}

// TestWSDequeExactlyOnceUnderContention hammers one deque with a popping
// owner and several stealing thieves: every pushed task must come out exactly
// once. Run under -race this also checks the memory ordering of the
// push/pop/steal protocol.
func TestWSDequeExactlyOnceUnderContention(t *testing.T) {
	const tasks = 2000
	const thieves = 3
	table := taskTable(tasks)
	d := newWSDeque(table)
	seen := make([]atomic.Int32, tasks)
	var got atomic.Int64
	var wg sync.WaitGroup

	record := func(task *Task) {
		seen[task.id].Add(1)
		got.Add(1)
	}
	wg.Add(1 + thieves)
	go func() { // owner: interleave pushes and pops
		defer wg.Done()
		for i := 0; i < tasks; i++ {
			d.push(table[i])
			if i%3 == 0 {
				if task := d.pop(); task != nil {
					record(task)
				}
			}
		}
		for {
			task := d.pop()
			if task == nil {
				break
			}
			record(task)
		}
	}()
	for th := 0; th < thieves; th++ {
		go func() {
			defer wg.Done()
			for got.Load() < tasks {
				if task := d.steal(); task != nil {
					record(task)
				}
			}
		}()
	}
	wg.Wait()
	// The owner drained its deque and thieves only stop once the global count
	// reaches the total; a lost task would deadlock wg.Wait before this point.
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("task %d surfaced %d times", i, n)
		}
	}
}

// TestStealDispatcherCountsSteals drives the dispatcher directly: a task
// parked on worker 0's deque taken by worker 1 must be counted as worker 1's
// steal.
func TestStealDispatcherCountsSteals(t *testing.T) {
	tasks := taskTable(8)
	d := newStealDispatcher(2, tasks)
	task := tasks[7]
	d.push(0, task)
	if d.depth(0) != 1 {
		t.Fatal("push from worker 0 must queue the task on its deque")
	}
	abort := make(chan struct{})
	got, victim, _ := d.take(1, abort)
	if got != task {
		t.Fatalf("take(1) = %v, want the parked task", got)
	}
	if victim != 0 {
		t.Fatalf("take(1) victim = %d, want 0", victim)
	}
	if d.stolen(1) != 1 {
		t.Fatalf("stolen(1) = %d, want 1", d.stolen(1))
	}
	if d.stolen(0) != 0 {
		t.Fatalf("stolen(0) = %d, want 0", d.stolen(0))
	}
	// Injector pushes (from < 0) are not steals.
	d.push(-1, task)
	if d.depth(-1) != 1 {
		t.Fatal("push from outside the pool must queue the task on the injector")
	}
	got, victim, _ = d.take(1, abort)
	if got != task {
		t.Fatal("injected task not delivered")
	}
	if victim != -1 {
		t.Fatalf("injector take reported victim %d, want -1", victim)
	}
	if d.stolen(1) != 1 {
		t.Fatalf("injector take counted as steal: stolen(1) = %d", d.stolen(1))
	}
}

// TestWSDequeWrapsAround runs pushAll/pop/steal cycles that carry the
// indices past the buffer's capacity several times (steals advance both ends
// for good; a pop gives its slot back to the next push): every slot is
// reused, and each task — the table's largest id among them — comes out
// once, as the task that went in.
func TestWSDequeWrapsAround(t *testing.T) {
	const n = 13 // a 16-slot buffer
	table := taskTable(n)
	d := newWSDeque(table)
	if capacity := int(d.mask + 1); capacity != 16 {
		t.Fatalf("capacity %d, want 16", capacity)
	}
	for cycle := 0; d.top.Load() < 5*int64(len(d.buf)); cycle++ {
		// A batch of up to n tasks, the largest id always among them.
		k := 1 + cycle%n
		batch := append([]*Task{table[n-1]}, table[:k-1]...)
		d.pushAll(batch)
		if got := d.size(); got != k {
			t.Fatalf("cycle %d: size %d after pushing %d", cycle, got, k)
		}
		// Drain it from both ends: steal takes the oldest, pop the newest.
		lo, hi := 0, k-1
		for lo <= hi {
			var got *Task
			var want int
			if (lo+hi+cycle)%2 == 0 {
				got, want = d.steal(), lo
				lo++
			} else {
				got, want = d.pop(), hi
				hi--
			}
			if got != batch[want] {
				t.Fatalf("cycle %d (bottom %d): got %v, want task %d", cycle, d.bottom.Load(), got, batch[want].id)
			}
		}
		if d.pop() != nil || d.steal() != nil {
			t.Fatalf("cycle %d: drained deque returned a task", cycle)
		}
	}
}

// TestWSDequeLastTaskOwnerVersusThief makes the owner and a thief meet on the
// last task, the one race pop settles by a CAS on top. In every round the
// owner pushes exactly one task; a start/arrived handshake then releases the
// owner's pop and the thief's steal together, and exactly one of them must
// get the task. A pop that kept the task after losing its CAS would hand it
// out twice.
func TestWSDequeLastTaskOwnerVersusThief(t *testing.T) {
	const rounds = 100_000
	table := taskTable(1)
	d := newWSDeque(table)
	// start says which round the task is pushed for; arrived counts both
	// sides in at each round, 2r once both are in for round r.
	var start, arrived, stole, done atomic.Int64
	meet := func(r int64) {
		arrived.Add(1)
		for n := 0; arrived.Load() < 2*r; n++ {
			if n > 100 {
				runtime.Gosched() // a host with one CPU runs the other side now
			}
		}
	}
	go func() { // the thief
		for r := int64(1); r <= rounds; r++ {
			for start.Load() != r {
				runtime.Gosched()
			}
			meet(r)
			if d.steal() != nil {
				stole.Add(1)
			}
			done.Store(r)
		}
	}()
	owner, both, neither := 0, 0, 0
	for r := int64(1); r <= rounds; r++ {
		before := stole.Load()
		d.push(table[0])
		start.Store(r)
		meet(r)
		popped := d.pop() != nil
		for done.Load() != r {
			runtime.Gosched()
		}
		switch thief := stole.Load() > before; {
		case popped && thief:
			both++
		case !popped && !thief:
			neither++
		case popped:
			owner++
		}
	}
	t.Logf("%d rounds: the owner took the task in %d, the thief in %d", rounds, owner, rounds-owner-both-neither)
	if both > 0 || neither > 0 {
		t.Fatalf("%d rounds: the task went to both in %d and to neither in %d", rounds, both, neither)
	}
}
