package taskrt

import "sync/atomic"

// wsDeque is a fixed-capacity Chase-Lev work-stealing deque: the owning
// worker pushes and pops at the bottom (LIFO, cache-hot depth-first order)
// while thieves steal from the top (FIFO, oldest work first). The only
// synchronisation is one CAS on the top index per steal — and per pop of the
// final element, where owner and thieves race.
//
// The capacity is fixed at construction. The real engine sizes every deque
// for the entire task graph and a task occupies at most one queue slot at a
// time, so bottom-top can never exceed the capacity and the growth protocol
// (and its subtle buffer-swap memory ordering) of the original algorithm is
// unnecessary. Go's atomics are sequentially consistent, which is stronger
// than the fences the published algorithm requires.
//
// A slot holds a task id, not a pointer, and the deque resolves it through
// the graph's task table, which the run keeps live anyway. A buffer sized for
// the whole graph is then half as large and holds no pointers: the collector
// never scans it, and a push stores into it without a write barrier.
type wsDeque struct {
	bottom atomic.Int64 // next push slot; written by the owner only
	top    atomic.Int64 // next steal slot; CAS-advanced by anyone
	mask   int64
	buf    []atomic.Int32 // task ids
	tasks  []*Task        // the graph's task table, by id; read only
}

// newWSDeque returns a deque that can hold every task of tasks, which it
// resolves ids through. One spare slot guards the wrap-around aliasing case
// (bottom-top == bufsize).
func newWSDeque(tasks []*Task) *wsDeque {
	n := int64(1)
	for n < int64(len(tasks))+1 {
		n <<= 1
	}
	return &wsDeque{mask: n - 1, buf: make([]atomic.Int32, n), tasks: tasks}
}

// push appends t at the bottom. Owner only.
func (d *wsDeque) push(t *Task) {
	b := d.bottom.Load()
	d.buf[b&d.mask].Store(int32(t.id))
	d.bottom.Store(b + 1)
}

// pushAll appends ts at the bottom in order: it stores every slot and then
// publishes them with one store of bottom, so a thief sees none or all of
// them. Owner only.
func (d *wsDeque) pushAll(ts []*Task) {
	b := d.bottom.Load()
	for i, t := range ts {
		d.buf[(b+int64(i))&d.mask].Store(int32(t.id))
	}
	d.bottom.Store(b + int64(len(ts)))
}

// pop removes the most recently pushed task, or returns nil when the deque
// is empty or a thief won the race for the last element. Owner only.
func (d *wsDeque) pop() *Task {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: undo the reservation.
		d.bottom.Store(b + 1)
		return nil
	}
	id := d.buf[b&d.mask].Load()
	if t == b {
		// Last element: race thieves for it via the top index.
		won := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(b + 1)
		if !won {
			return nil // a thief got there first
		}
	}
	return d.tasks[id]
}

// size approximates the queued-task count from a racy snapshot of the two
// indices — good enough for the metrics sampler, never for control flow. It
// can transiently read one high (owner mid-pop) and is clamped at zero.
func (d *wsDeque) size() int {
	if n := d.bottom.Load() - d.top.Load(); n > 0 {
		return int(n)
	}
	return 0
}

// empty reports whether the deque reads empty, the test steal makes before
// it touches a slot. Racy: a task pushed after the read is missed.
func (d *wsDeque) empty() bool { return d.top.Load() >= d.bottom.Load() }

// steal removes the oldest task, or returns nil when the deque is empty or
// another thief (or the owner, on the last element) won the race. Safe from
// any goroutine.
func (d *wsDeque) steal() *Task {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	id := d.buf[t&d.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return d.tasks[id]
}
