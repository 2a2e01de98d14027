package trace

import (
	"sync"
	"testing"
)

// Drain must move everything recorded so far (direct records, flushed shard
// events, the dropped count) into the snapshot, keep metadata on both sides,
// and leave the receiver recording — the contract behind a collector
// repeatedly draining a live worker trace.
func TestDrainMovesEventsKeepsMeta(t *testing.T) {
	tr := New()
	tr.SetMeta(MetaNode, "w1")
	tr.SetMeta(MetaEpochMicros, "42")
	sh := tr.NewShard(0)
	sh.Record(Event{Kind: Task, Unit: "worker0", Start: 0, End: 1, TaskID: 0})
	sh.Flush()
	tr.Record(Event{Kind: Place, Unit: "m", Start: 0, End: 0, TaskID: 0})

	snap := tr.Drain()
	if snap.Len() != 2 {
		t.Fatalf("drained %d events; want 2", snap.Len())
	}
	if tr.Len() != 0 {
		t.Fatalf("receiver still holds %d events after Drain", tr.Len())
	}
	for _, m := range []*Trace{snap, tr} {
		meta := m.Meta()
		if meta[MetaNode] != "w1" || meta[MetaEpochMicros] != "42" {
			t.Fatalf("meta lost across Drain: %v", meta)
		}
	}

	// Second drain picks up only what was recorded since.
	tr.Record(Event{Kind: Task, Unit: "worker0", Start: 2, End: 3, TaskID: 1})
	snap2 := tr.Drain()
	if snap2.Len() != 1 {
		t.Fatalf("second drain got %d events; want 1", snap2.Len())
	}
	if got := snap2.Events()[0].TaskID; got != 1 {
		t.Fatalf("second drain returned task %d; want 1", got)
	}
}

// SetLimit must bound the trace between drains: the oldest events, in
// arrival order, are discarded past the cap, counted in Dropped
// (drain-scoped) and DroppedTotal (monotonic).
func TestSetLimitDropsOldest(t *testing.T) {
	tr := New()
	tr.SetLimit(5)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Kind: Task, TaskID: i})
	}
	if got := tr.Len(); got != 5 {
		t.Fatalf("Len = %d with limit 5", got)
	}
	if d := tr.Dropped(); d != 5 {
		t.Fatalf("Dropped = %d, want 5", d)
	}
	events := tr.Events()
	if events[0].TaskID != 5 || events[4].TaskID != 9 {
		t.Fatalf("survivors are not the newest events: %+v", events)
	}

	// Flushed shards are bounded exactly as direct records are: limit 6 after
	// two flushed shards of 4 keeps the newest 6.
	tr2 := New()
	tr2.SetLimit(6)
	for round := 0; round < 2; round++ {
		sh := tr2.NewShard(0)
		for i := 0; i < 4; i++ {
			sh.Record(Event{Kind: Task, TaskID: round*4 + i})
		}
		sh.Flush()
	}
	if got := tr2.Len(); got != 6 {
		t.Fatalf("Len = %d after two flushes, want 6", got)
	}
	if got := tr2.Events()[0].TaskID; got != 2 {
		t.Fatalf("oldest surviving span is task %d, want 2", got)
	}
	if d := tr2.DroppedTotal(); d != 2 {
		t.Fatalf("DroppedTotal = %d, want 2", d)
	}

	// Drain resets the per-drain count but not the monotonic one, and the
	// receiver keeps enforcing its limit afterwards.
	snap := tr2.Drain()
	if snap.Dropped() != 2 || tr2.Dropped() != 0 {
		t.Fatalf("drain moved dropped wrong: snap=%d recv=%d", snap.Dropped(), tr2.Dropped())
	}
	if d := tr2.DroppedTotal(); d != 2 {
		t.Fatalf("DroppedTotal reset by Drain: %d", d)
	}
	for i := 0; i < 10; i++ {
		tr2.Record(Event{Kind: Task, TaskID: 100 + i})
	}
	if got, d := tr2.Len(), tr2.DroppedTotal(); got != 6 || d != 6 {
		t.Fatalf("post-drain enforcement: Len=%d DroppedTotal=%d, want 6 and 6", got, d)
	}

	// SetLimit(0) removes the bound.
	tr2.SetLimit(0)
	for i := 0; i < 20; i++ {
		tr2.Record(Event{Kind: Task, TaskID: 200 + i})
	}
	if got := tr2.Len(); got != 26 {
		t.Fatalf("unbounded trace Len = %d, want 26", got)
	}
}

// Drain racing concurrent recorders must never lose or double-count events
// (run under -race via the Makefile race subset).
func TestDrainConcurrentRecord(t *testing.T) {
	tr := New()
	const recorders, per = 4, 500
	var wg sync.WaitGroup
	for r := 0; r < recorders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Record(Event{Kind: Task, TaskID: i})
			}
		}()
	}
	got := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		got += tr.Drain().Len()
		select {
		case <-done:
			got += tr.Drain().Len()
			if got != recorders*per {
				t.Fatalf("drained %d events total; want %d", got, recorders*per)
			}
			return
		default:
		}
	}
}
