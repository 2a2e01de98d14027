package trace

import (
	"bytes"
	"strings"
	"testing"
)

// nodeSample builds a trace as a pdlworkerd process would: node + epoch
// metadata, events without explicit Node stamps.
func nodeSample(node string, epochUS int64) *Trace {
	t := New()
	t.SetMeta(MetaNode, node)
	t.SetMeta(MetaEpochMicros, itoa64(epochUS))
	t.Record(Event{Kind: Task, Unit: "worker0", Label: "gemm", Start: 0, End: 1, TaskID: 0})
	t.Record(Event{Kind: Task, Unit: "worker1", Label: "gemm", Start: 0.5, End: 2, TaskID: 1})
	return t
}

func itoa64(v int64) string {
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// The Node dimension must survive both serialisations: JSONL via struct
// tags, Chrome via args plus per-node process lanes.
func TestNodeRoundTrip(t *testing.T) {
	tr := New()
	tr.SetMeta("scheduler", "cluster")
	tr.Record(Event{Kind: Task, Unit: "worker0", Label: "a", Start: 0, End: 1, TaskID: 0, Node: "w1"})
	tr.Record(Event{Kind: Task, Unit: "worker0", Label: "b", Start: 1, End: 2, TaskID: 1, ParentIDs: []int{0}, Node: "w2"})
	tr.Record(Event{Kind: Place, Unit: "master", Label: "b", Start: 0.5, End: 0.5, TaskID: 1, From: "model"})

	var jsonl, chrome bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, tr, got)

	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	out := chrome.String()
	// Distinct nodes become distinct processes; node-less events keep pid 0.
	for _, want := range []string{`"name": "node:w1"`, `"name": "node:w2"`, `"name": "pdl"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome output lacks %s:\n%s", want, out)
		}
	}
	got, err = ReadChrome(bytes.NewReader(chrome.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, tr, got)
}

// Merge stamps each input's node onto its events and aligns time bases via
// the epoch metadata: a worker whose epoch is 1.5s later must have its spans
// shifted 1.5s right in the merged timeline.
func TestMergeAlignsEpochs(t *testing.T) {
	a := nodeSample("w1", 1_000_000)
	b := nodeSample("w2", 2_500_000)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	events := m.Events()
	if len(events) != 4 {
		t.Fatalf("merged %d events; want 4", len(events))
	}
	var w1Start, w2Start float64 = -1, -1
	for _, e := range events {
		switch {
		case e.Node == "w1" && e.TaskID == 0:
			w1Start = e.Start
		case e.Node == "w2" && e.TaskID == 0:
			w2Start = e.Start
		}
	}
	if w1Start != 0 {
		t.Fatalf("w1 task0 start = %v; want 0 (earliest epoch is the origin)", w1Start)
	}
	if w2Start != 1.5 {
		t.Fatalf("w2 task0 start = %v; want 1.5 (epoch delta)", w2Start)
	}
	// Per-node metadata is preserved under prefixed keys.
	meta := m.Meta()
	if meta["w1/"+MetaEpochMicros] != "1000000" || meta["w2/"+MetaEpochMicros] != "2500000" {
		t.Fatalf("merged meta missing per-node epochs: %v", meta)
	}
}

// Deliberate clock skew: nodes whose wall clocks disagree (one 3s behind the
// master, one 5s ahead) must still land on one consistent timeline, because
// alignment uses only the epoch deltas — the skew cancels as long as each
// node's events are offsets from its own epoch. Durations must be preserved
// exactly; only origins shift.
func TestMergeUnderClockSkew(t *testing.T) {
	const base = int64(1_700_000_000_000_000) // some wall-clock epoch, µs
	master := nodeSample("m", base)
	behind := nodeSample("slow-clock", base-3_000_000) // clock 3s behind
	ahead := nodeSample("fast-clock", base+5_000_000)  // clock 5s ahead
	m, err := Merge(master, behind, ahead)
	if err != nil {
		t.Fatal(err)
	}
	// Earliest epoch (behind's) becomes the origin; everyone else shifts
	// right by their delta to it.
	wantShift := map[string]float64{"slow-clock": 0, "m": 3, "fast-clock": 8}
	seen := map[string]bool{}
	for _, e := range m.Events() {
		if e.TaskID != 0 {
			continue
		}
		want, ok := wantShift[e.Node]
		if !ok {
			t.Fatalf("unexpected node %q", e.Node)
		}
		seen[e.Node] = true
		if e.Start != want {
			t.Fatalf("node %s task0 start = %v; want %v", e.Node, e.Start, want)
		}
		if d := e.Duration(); d != 1 {
			t.Fatalf("node %s task0 duration = %v; want 1 (skew must not stretch spans)", e.Node, d)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("merged trace covers nodes %v; want all 3", seen)
	}
	// Makespan spans from the earliest node's first event to the latest
	// node's last (local end 2 + shift 8).
	if ms := m.Makespan(); ms != 10 {
		t.Fatalf("merged makespan = %v; want 10", ms)
	}
}

// Without epochs on every input, Merge must not shift anything — partial
// alignment would reorder events across nodes arbitrarily.
func TestMergeWithoutEpochsKeepsTimes(t *testing.T) {
	a := New()
	a.SetMeta(MetaNode, "w1")
	a.Record(Event{Kind: Task, Unit: "u", Start: 1, End: 2, TaskID: 0})
	b := nodeSample("w2", 9_000_000)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Events() {
		if e.Node == "w1" && e.TaskID == 0 && e.Start != 1 {
			t.Fatalf("w1 start shifted to %v without full epoch info", e.Start)
		}
		if e.Node == "w2" && e.TaskID == 0 && e.Start != 0 {
			t.Fatalf("w2 start shifted to %v without full epoch info", e.Start)
		}
	}
}

// Events that already carry a Node (the master's dispatch spans name the
// target node) keep it; only unstamped events inherit the trace's node.
func TestMergeKeepsExplicitNode(t *testing.T) {
	a := New()
	a.SetMeta(MetaNode, "master")
	a.Record(Event{Kind: Place, Unit: "m", Start: 0, End: 0, TaskID: 0, Node: "w2"})
	a.Record(Event{Kind: Task, Unit: "m", Start: 0, End: 1, TaskID: 1})
	m, err := Merge(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Events() {
		switch e.TaskID {
		case 0:
			if e.Node != "w2" {
				t.Fatalf("explicit node overwritten: %q", e.Node)
			}
		case 1:
			if e.Node != "master" {
				t.Fatalf("unstamped event node = %q; want master", e.Node)
			}
		}
	}
}

// A worker crash mid-run produces the hardest merge input: the node's trace
// arrives in two pieces with different epochs (the restart re-registers with
// a fresh time origin), the crashed attempt left a Failure event, the retry
// ran in the second incarnation, and a speculative duplicate of another task
// ran elsewhere. The merged timeline must stay causally ordered across the
// epoch boundary, and CriticalPath must chain through the surviving attempt
// of every task — never a Failure, never a superseded duplicate.
func TestMergeMultiEpochMultiAttempt(t *testing.T) {
	const base = int64(1_000_000)

	// The master places all three tasks; its dispatch spans carry explicit
	// target nodes and must never reach the critical path.
	master := New()
	master.SetMeta(MetaNode, "master")
	master.SetMeta(MetaEpochMicros, itoa64(base))
	master.Record(Event{Kind: Place, Unit: "m", Start: 0, End: 0, TaskID: 0, Node: "w1"})
	master.Record(Event{Kind: Place, Unit: "m", Start: 0, End: 0, TaskID: 1, Node: "w1"})
	master.Record(Event{Kind: Place, Unit: "m", Start: 0.1, End: 0.1, TaskID: 2, Node: "w2"})

	// w1, first incarnation: runs task 0, fails task 1, crashes.
	w1a := New()
	w1a.SetMeta(MetaNode, "w1")
	w1a.SetMeta(MetaEpochMicros, itoa64(base))
	w1a.Record(Event{Kind: Task, Unit: "slot0", Label: "potrf", Start: 0, End: 1, TaskID: 0})
	w1a.Record(Event{Kind: Failure, Unit: "slot0", Label: "trsm", Start: 1.0, End: 1.4, TaskID: 1, ParentIDs: []int{0}})

	// w1, second incarnation: restarts 2s later (fresh epoch), retries
	// task 1. Its local clock restarted from zero — only the new epoch
	// places the retry after the failure on the merged timeline.
	w1b := New()
	w1b.SetMeta(MetaNode, "w1")
	w1b.SetMeta(MetaEpochMicros, itoa64(base+2_000_000))
	w1b.Record(Event{Kind: Task, Unit: "slot0", Label: "trsm", Start: 0.5, End: 1.5, TaskID: 1, ParentIDs: []int{0}})

	// w2: ran a speculative duplicate of task 0 that lost (earlier global
	// End than w1's run), then task 2 once task 1's retry landed.
	w2 := New()
	w2.SetMeta(MetaNode, "w2")
	w2.SetMeta(MetaEpochMicros, itoa64(base+500_000))
	w2.Record(Event{Kind: Task, Unit: "slot0", Label: "potrf", Start: 0, End: 0.2, TaskID: 0})
	w2.Record(Event{Kind: Task, Unit: "slot0", Label: "syrk", Start: 3.2, End: 4.4, TaskID: 2, ParentIDs: []int{1}})

	m, err := Merge(master, w1a, w1b, w2)
	if err != nil {
		t.Fatal(err)
	}

	// The merged timeline is globally sorted and causally ordered: each
	// task's surviving attempt starts at or after every parent's surviving
	// end, even across w1's epoch boundary.
	events := m.Events()
	surviving := map[int]Event{}
	for i, e := range events {
		if i > 0 && e.Start < events[i-1].Start {
			t.Fatalf("merged events out of order at %d: %v after %v", i, e.Start, events[i-1].Start)
		}
		if e.Kind != Task {
			continue
		}
		if prev, ok := surviving[e.TaskID]; !ok || e.End > prev.End {
			surviving[e.TaskID] = e
		}
	}
	for id, e := range surviving {
		for _, p := range e.ParentIDs {
			if pe, ok := surviving[p]; ok && e.Start < pe.End {
				t.Fatalf("task %d starts at %v before parent %d ends at %v", id, e.Start, p, pe.End)
			}
		}
	}
	// The retry landed after the failure it supersedes.
	if got := surviving[1].Start; got != 2.5 {
		t.Fatalf("task 1 retry starts at %v; want 2.5 (0.5 local + 2s epoch delta)", got)
	}

	cp := m.CriticalPath()
	if len(cp.TaskIDs) != 3 || cp.TaskIDs[0] != 0 || cp.TaskIDs[1] != 1 || cp.TaskIDs[2] != 2 {
		t.Fatalf("critical path task ids = %v; want [0 1 2]", cp.TaskIDs)
	}
	// Surviving durations: task 0 on w1 (1s, the duplicate on w2 lost),
	// task 1's retry (1s), task 2 (1.2s).
	if want := 1 + 1 + 1.2; cp.Length < want-1e-9 || cp.Length > want+1e-9 {
		t.Fatalf("critical path length = %v; want %v", cp.Length, want)
	}
	if e := cp.Events[0]; e.Node != "w1" || e.End != 1 {
		t.Fatalf("path uses the losing duplicate of task 0: %+v", e)
	}
	if e := cp.Events[1]; e.Node != "w1" || e.Start != 2.5 || e.Kind != Task {
		t.Fatalf("path does not use the surviving retry of task 1: %+v", e)
	}
	if e := cp.Events[2]; e.Node != "w2" {
		t.Fatalf("task 2 attributed to %q; want w2", e.Node)
	}
	// Both incarnations' epochs survive under the node-prefixed meta (the
	// later registration wins the key, matching registry semantics).
	if got := m.Meta()["w1/"+MetaEpochMicros]; got != itoa64(base+2_000_000) {
		t.Fatalf("w1 merged epoch = %q; want the restart's", got)
	}
}

// Spans lost on any node are lost from the cluster timeline: the merged
// trace reports the sum of its inputs' drops, not 0.
func TestMergeSumsDropped(t *testing.T) {
	a, b, c := nodeSample("w1", 1_000_000), nodeSample("w2", 1_000_000), nodeSample("w3", 1_000_000)
	a.SetLimit(1) // drops 1
	sh := b.NewShard(4)
	for i := 0; i < 7; i++ { // the shard drops its first chunk of 4
		sh.Record(Event{Kind: Task, Unit: "worker0", TaskID: 10 + i})
	}
	sh.Flush()
	m, err := Merge(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Dropped(); got != 5 {
		t.Fatalf("merged Dropped = %d; want 1 + 4 + 0", got)
	}
	if got := m.Len(); got != 1+5+2 {
		t.Fatalf("merged Len = %d; want 8", got)
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge(); err == nil {
		t.Fatal("Merge() of nothing succeeded")
	}
	if _, err := Merge(nil); err == nil {
		t.Fatal("Merge(nil) succeeded")
	}
	bad := New()
	bad.SetMeta(MetaEpochMicros, "not-a-number")
	if _, err := Merge(bad); err == nil {
		t.Fatal("Merge with bad epoch succeeded")
	}
}
