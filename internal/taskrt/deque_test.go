package taskrt

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestWSDequeOrdering(t *testing.T) {
	d := newWSDeque(8)
	tasks := make([]*Task, 5)
	for i := range tasks {
		tasks[i] = &Task{id: i}
		d.push(tasks[i])
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
	d := newWSDeque(tasks)
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
			d.push(&Task{id: i})
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
	d := newStealDispatcher(2, 4)
	task := &Task{id: 7}
	d.push(0, task)
	if !d.sem.take() {
		t.Fatal("acquire after push must succeed")
	}
	abort := make(chan struct{})
	got, victim := d.take(1, abort)
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
	if !d.sem.take() {
		t.Fatal("acquire after injector push must succeed")
	}
	got, victim = d.take(1, abort)
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
