package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var order []int
	if err := e.At(2, func(Time) { order = append(order, 2) }); err != nil {
		t.Fatal(err)
	}
	if err := e.At(1, func(Time) { order = append(order, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := e.At(1, func(Time) { order = append(order, 10) }); err != nil {
		t.Fatal(err)
	}
	n := e.Run(0)
	if n != 3 {
		t.Fatalf("processed %d events", n)
	}
	// Equal times run in scheduling order (FIFO tie-break).
	if len(order) != 3 || order[0] != 1 || order[1] != 10 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 2 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEngineCascadingEvents(t *testing.T) {
	var e Engine
	count := 0
	var tick func(Time)
	tick = func(now Time) {
		count++
		if count < 5 {
			if err := e.After(1, tick); err != nil {
				t.Errorf("After: %v", err)
			}
		}
	}
	if err := e.After(1, tick); err != nil {
		t.Fatal(err)
	}
	e.Run(0)
	if count != 5 || e.Now() != 5 {
		t.Fatalf("count=%d now=%v", count, e.Now())
	}
}

func TestEnginePastScheduleFails(t *testing.T) {
	var e Engine
	_ = e.At(5, func(Time) {})
	e.Run(0)
	if err := e.At(1, func(Time) {}); err == nil {
		t.Fatal("scheduling in the past must fail")
	}
	if err := e.After(-1, func(Time) {}); err == nil {
		t.Fatal("negative delay must fail")
	}
}

func TestEngineMaxEvents(t *testing.T) {
	var e Engine
	for i := 0; i < 10; i++ {
		_ = e.At(Time(i), func(Time) {})
	}
	if n := e.Run(3); n != 3 {
		t.Fatalf("Run(3) = %d", n)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run(0)
	if e.Pending() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestResourceSerialization(t *testing.T) {
	r := Resource{Name: "pu0"}
	s1, e1 := r.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first acquire = %v..%v", s1, e1)
	}
	// Ready before availability: starts when free.
	s2, e2 := r.Acquire(5, 3)
	if s2 != 10 || e2 != 13 {
		t.Fatalf("second acquire = %v..%v", s2, e2)
	}
	// Ready after availability: starts at ready (idle gap).
	s3, e3 := r.Acquire(20, 2)
	if s3 != 20 || e3 != 22 {
		t.Fatalf("third acquire = %v..%v", s3, e3)
	}
	if r.Busy() != 15 {
		t.Fatalf("busy = %v", r.Busy())
	}
	if r.Available() != 22 {
		t.Fatalf("available = %v", r.Available())
	}
}

// Property-based: a resource never overlaps acquisitions and busy time is
// the sum of durations.
func TestQuickResourceInvariants(t *testing.T) {
	f := func(readies []uint8, durs []uint8) bool {
		var r Resource
		n := len(readies)
		if len(durs) < n {
			n = len(durs)
		}
		var prevEnd Time
		var total Time
		for i := 0; i < n; i++ {
			ready := Time(readies[i] % 50)
			dur := Time(durs[i]%20) + 1
			s, e := r.Acquire(ready, dur)
			if s < prevEnd || s < ready || e != s+dur {
				return false
			}
			prevEnd = e
			total += dur
		}
		return r.Busy() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
