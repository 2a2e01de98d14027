// Package sim provides the discrete-event simulation primitives used by the
// simulated execution engine: a virtual clock with an event heap, and
// serially-occupied resources with availability-time semantics (processing
// units, interconnect links).
//
// Nothing in this package reads wall-clock time; simulations are
// deterministic functions of their inputs.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is virtual time in seconds.
type Time float64

// event is one scheduled callback.
type event struct {
	at  Time
	seq uint64 // FIFO tie-break for equal times
	fn  func(Time)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Engine is a discrete-event executor. The zero value is ready to use.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is an error.
func (e *Engine) At(t Time, fn func(Time)) error {
	if t < e.now {
		return fmt.Errorf("sim: schedule at %v before now %v", t, e.now)
	}
	heap.Push(&e.events, event{at: t, seq: e.seq, fn: fn})
	e.seq++
	return nil
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Time, fn func(Time)) error {
	if d < 0 {
		return fmt.Errorf("sim: negative delay %v", d)
	}
	return e.At(e.now+d, fn)
}

// Run processes events until the queue drains or maxEvents callbacks have
// run (0 means unlimited). It returns the number of events processed.
func (e *Engine) Run(maxEvents int) int {
	n := 0
	for len(e.events) > 0 {
		if maxEvents > 0 && n >= maxEvents {
			break
		}
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		ev.fn(ev.at)
		n++
	}
	return n
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// Resource models a serially-occupied facility (a processing unit, a PCIe
// link): requests are served one at a time in arrival order, each no earlier
// than its ready time.
type Resource struct {
	Name  string
	avail Time
	busy  Time // accumulated occupied seconds
}

// Acquire reserves the resource for dur seconds, starting no earlier than
// ready. It returns the actual start and end times and advances the
// availability horizon.
func (r *Resource) Acquire(ready, dur Time) (start, end Time) {
	start = ready
	if r.avail > start {
		start = r.avail
	}
	end = start + dur
	r.avail = end
	r.busy += dur
	return start, end
}

// Available returns the time at which the resource next becomes free.
func (r *Resource) Available() Time { return r.avail }

// Busy returns the total occupied seconds.
func (r *Resource) Busy() Time { return r.busy }
