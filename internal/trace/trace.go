// Package trace records causal execution traces of the task runtime: one
// span per task execution, data transfer or fault-tolerance action, with
// start/end times, placement, and the causal identifiers (task id, parent
// ids, attempt, worker) that link spans into the task DAG. Traces render as
// per-unit timelines (a textual Gantt chart), aggregate statistics, a
// critical path, and export to Chrome trace_event JSON (loadable in Perfetto
// or chrome://tracing) and a JSONL stream — the role StarPU's FxT tracing
// plays for Vite, and the paper's Section II names as an auto-tuner /
// performance-prediction use case for PDL information ("performance relevant
// observations can now be related ... to abstract architectural patterns").
//
// Recording is cheap on hot paths: workers record into per-worker Shards
// (lock-free single-producer buffers) that are appended to the Trace at
// Flush, so the work-stealing dispatch loop never contends on the trace
// mutex.
package trace

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates trace events.
type Kind int

const (
	// Task marks a kernel execution on a processing unit.
	Task Kind = iota
	// Transfer marks a data movement into a memory node.
	Transfer
	// Failure marks a task attempt that died on its unit: Start..End spans
	// the wasted occupancy from launch to failure detection.
	Failure
	// Retry marks a failed task being re-queued: Start is the detection
	// time, End the time the task becomes ready again (after backoff).
	Retry
	// Blacklist marks a unit being taken out of scheduling after a failure.
	Blacklist
	// Recover marks a blacklisted unit being re-admitted.
	Recover
	// Steal marks a worker obtaining a task from another worker's queue
	// (real-mode work-stealing dispatch). Start == End: it is an instant.
	Steal
	// Place marks a scheduler routing a task to a worker's queue at push
	// time (real-mode dmda dispatch). Start == End: it is an instant; From
	// carries the decision source ("model", "fallback" or "cold").
	Place
	// Straggler marks the anomaly detector flagging a task whose observed
	// latency exceeded the model estimate its placement used by more than
	// the configured multiple. Start == End: it is an instant; From carries
	// the reason string (observed-vs-estimate ratio and slowdown score).
	Straggler
)

// kindNames is the one table behind String, ParseKind and both file formats.
var kindNames = [...]string{
	Task: "task", Transfer: "transfer", Failure: "failure", Retry: "retry",
	Blacklist: "blacklist", Recover: "recover", Steal: "steal", Place: "place",
	Straggler: "straggler",
}

// String names the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind inverts Kind.String.
func ParseKind(s string) (Kind, error) {
	if k := slices.Index(kindNames[:], s); k >= 0 {
		return Kind(k), nil
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// MarshalText encodes the kind by name, keeping both file formats readable
// and stable across reorderings of the Kind constants.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind name.
func (k *Kind) UnmarshalText(text []byte) (err error) {
	*k, err = ParseKind(string(text))
	return err
}

// NoTask marks events that are not attributable to a task (unit-level
// blacklist/recover events).
const NoTask = -1

// Event is one traced occurrence. Times are seconds (virtual in sim mode,
// wall-clock offsets in real mode). Its JSON encoding is the one schema of
// both file formats: a JSONL line is an Event, and so is a Chrome event's
// args — a field added here is carried by both with no further edit.
type Event struct {
	Kind  Kind    `json:"kind"`
	Unit  string  `json:"unit"`            // executing PU id, or destination memory node for transfers
	Label string  `json:"label,omitempty"` // task label / handle name
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Bytes int64   `json:"bytes,omitempty"` // transfers only

	// Causal span identifiers.

	// TaskID is the submission-order id of the task this event belongs to,
	// or NoTask for unit-level events. For transfers it identifies the
	// consuming task.
	TaskID int `json:"task"`
	// ParentIDs are the task ids this task depends on (the DAG edges), set
	// on Task events so exporters can draw dependency arrows and the
	// critical path can be extracted.
	ParentIDs []int `json:"parents,omitempty"`
	// Attempt numbers the execution attempt of the task (0 = first try).
	Attempt int `json:"attempt,omitempty"`
	// Worker is the executing worker/unit index, or -1 when unknown.
	Worker int `json:"worker"`
	// From names the victim unit on Steal events (the queue the task was
	// taken from), so exporters can draw steal arrows between lanes, and
	// the decision source on Place events ("model", "fallback", "cold").
	From string `json:"from,omitempty"`
	// Transfer is the modelled data-transfer seconds folded into a Place
	// decision's score (data-aware dmda); zero when the operands were
	// already resident on the chosen worker's memory node.
	Transfer float64 `json:"transfer,omitempty"`
	// Node identifies the cluster node the event happened on ("" for
	// single-process runs). The cluster master stamps its own label on
	// control events and the target node on dispatches; pdlworkerd stamps
	// its node id on locally recorded spans, so `pdltrace merge` can
	// combine per-node traces into one timeline with per-node lanes.
	Node string `json:"node,omitempty"`
}

// Duration returns End - Start.
func (e Event) Duration() float64 { return e.End - e.Start }

// Trace collects events. It is safe for concurrent use (the real engine
// records from multiple workers); hot paths should prefer per-worker Shards
// over direct Record calls.
type Trace struct {
	mu     sync.Mutex
	events []Event // in arrival order: direct Records and flushed Shards alike
	meta   map[string]string
	// limit bounds the events held between drains (0 = unbounded); see
	// SetLimit. droppedTotal counts every drop for the life of the trace —
	// unlike dropped it survives Drain, so a metric fed from it is monotonic.
	limit                 int
	dropped, droppedTotal uint64
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Record appends an event.
func (t *Trace) Record(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, e)
	t.enforceLimitLocked()
}

// Reserve makes room for n more events, so that a run which knows its size
// grows the list once instead of at every Record and Flush.
func (t *Trace) Reserve(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = slices.Grow(t.events, n)
}

// SetLimit bounds how many events the trace holds (0 or negative removes
// the bound). Once the limit is exceeded the oldest events are discarded
// and counted in Dropped and DroppedTotal. A collector that drains regularly
// never hits the bound; a trace nobody drains stops growing instead of
// eating the process (the pdlworkerd span buffer sets this).
func (t *Trace) SetLimit(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.limit = max(n, 0)
	t.enforceLimitLocked()
}

// enforceLimitLocked discards the oldest events past the limit. Callers hold
// t.mu.
func (t *Trace) enforceLimitLocked() {
	if over := len(t.events) - t.limit; t.limit > 0 && over > 0 {
		t.addDroppedLocked(uint64(over))
		// Slide, don't shift: a trace at its limit drops one event per Record,
		// and moving the other limit−1 down each time is what a cluster worker
		// past its TraceCap would pay per kernel. The array's dead prefix is
		// let go when append next outgrows it.
		t.events = t.events[over:]
	}
}

// addDroppedLocked counts n events lost before they could be read: by this
// trace's limit, by a flushed shard's, or by a trace this one was merged or
// read back from. Callers hold t.mu, or have not shared t yet.
func (t *Trace) addDroppedLocked(n uint64) {
	t.dropped += n
	t.droppedTotal += n
}

// SetMeta attaches a metadata key/value to the trace (scheduler, kernel ISA,
// problem size...). Exporters carry metadata through both formats.
func (t *Trace) SetMeta(key, value string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.meta == nil {
		t.meta = map[string]string{}
	}
	t.meta[key] = value
}

// Meta returns a copy of the trace metadata.
func (t *Trace) Meta() map[string]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]string, len(t.meta))
	maps.Copy(out, t.meta)
	return out
}

// Dropped reports how many events were overwritten in shard buffers or
// discarded by the trace's own limit before they could be read (0 unless a
// run overflowed). Both file formats and Merge carry it; Drain resets it
// along with the events it accounts for.
func (t *Trace) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// DroppedTotal reports the monotonic drop count for the life of the trace:
// unlike Dropped it is never reset by Drain, so counters exported from it
// only move forward.
func (t *Trace) DroppedTotal() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.droppedTotal
}

// sortEvents puts events into the one export order: by start time, then
// node, unit, task id, kind and attempt. The sort is stable, so events equal
// in all six keep their recording order and every export of the same events
// is byte-identical however the recorders interleaved.
func sortEvents(out []Event) {
	slices.SortStableFunc(out, func(a, b Event) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c // nearly always: spare the tie-breakers' string compares
		}
		return cmp.Or(
			cmp.Compare(a.Node, b.Node),
			cmp.Compare(a.Unit, b.Unit),
			cmp.Compare(a.TaskID, b.TaskID),
			cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.Attempt, b.Attempt),
		)
	})
}

// Events returns a copy of the recorded events in export order (see
// sortEvents). This is the one O(n log n) entry point, paid per export; the
// aggregate helpers below compute over the raw slice instead.
func (t *Trace) Events() []Event {
	out := t.snapshot()
	sortEvents(out)
	return out
}

// snapshot copies the recorded events in arrival order.
func (t *Trace) snapshot() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.events)
}

// Drain atomically moves the recorded events into a returned snapshot
// trace and clears the receiver, which stays usable for further recording.
// Metadata is copied to the snapshot and kept on the receiver, so both
// halves remain attributable (node, epoch). This is the primitive behind
// GET /v1/trace?drain=1: a collector repeatedly drains a live worker trace
// without double-reading spans and without racing recorders. Events still
// buffered in unflushed Shards are untouched and surface in a later drain.
func (t *Trace) Drain() *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &Trace{events: t.events, dropped: t.dropped, meta: maps.Clone(t.meta)}
	t.events, t.dropped = nil, 0
	return out
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Makespan returns the latest End across all events (0 for empty traces).
// Computed in place under the lock: no copy, no sort.
func (t *Trace) Makespan() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := 0.0
	for i := range t.events {
		end = max(end, t.events[i].End)
	}
	return end
}

// OfKind returns the recorded events of one kind in export order. Only the
// matching subset is sorted, not the whole trace.
func (t *Trace) OfKind(k Kind) []Event {
	t.mu.Lock()
	var out []Event
	for i := range t.events {
		if t.events[i].Kind == k {
			out = append(out, t.events[i])
		}
	}
	t.mu.Unlock()
	sortEvents(out)
	return out
}

// UnitStats aggregates one unit's activity.
type UnitStats struct {
	Unit      string
	Tasks     int
	Busy      float64
	Transfers int
	Bytes     int64
	Failures  int
	Steals    int
	Retries   int
}

// ByUnit aggregates events per unit, sorted by unit id. Aggregation is
// order-independent, so it runs over the raw slice under the lock.
func (t *Trace) ByUnit() []UnitStats {
	t.mu.Lock()
	agg := map[string]*UnitStats{}
	for i := range t.events {
		e := &t.events[i]
		s := agg[e.Unit]
		if s == nil {
			s = &UnitStats{Unit: e.Unit}
			agg[e.Unit] = s
		}
		switch e.Kind {
		case Task:
			s.Tasks++
			s.Busy += e.Duration()
		case Transfer:
			s.Transfers++
			s.Bytes += e.Bytes
		case Failure:
			s.Failures++
			s.Busy += e.Duration()
		case Steal:
			s.Steals++
		case Retry:
			s.Retries++
		}
	}
	t.mu.Unlock()
	out := make([]UnitStats, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Unit < out[j].Unit })
	return out
}

// Gantt renders a textual Gantt chart: one row per unit, `width` columns
// spanning [0, makespan]. Task time renders as '#', transfer time as '~',
// idle as '.'. Rows are sorted by unit id.
func (t *Trace) Gantt(width int) string {
	width = max(width, 10)
	events := t.Events()
	if len(events) == 0 {
		return "(empty trace)\n"
	}
	makespan := 0.0
	for _, e := range events {
		makespan = max(makespan, e.End)
	}
	if makespan <= 0 {
		return "(zero-length trace)\n"
	}
	rows := map[string][]byte{}
	var units []string
	cell := func(ts float64) int {
		return max(0, min(width-1, int(ts/makespan*float64(width))))
	}
	for _, e := range events {
		var mark byte
		switch e.Kind {
		case Task:
			mark = '#'
		case Transfer:
			mark = '~'
		case Failure:
			mark = 'X'
		default:
			continue // control events (retry/blacklist/recover/steal) have no lane
		}
		row, ok := rows[e.Unit]
		if !ok {
			row = []byte(strings.Repeat(".", width))
			rows[e.Unit] = row
			units = append(units, e.Unit)
		}
		for c := cell(e.Start); c <= cell(e.End); c++ {
			// Tasks and failures dominate transfers visually.
			if row[c] != '#' && row[c] != 'X' {
				row[c] = mark
			}
		}
	}
	sort.Strings(units)
	var b strings.Builder
	fmt.Fprintf(&b, "gantt: %d events over %.6fs ('#'=compute '~'=transfer 'X'=failure)\n", len(events), makespan)
	for _, u := range units {
		fmt.Fprintf(&b, "%-12s |%s|\n", u, rows[u])
	}
	return b.String()
}

// Summary renders per-unit aggregates.
func (t *Trace) Summary() string {
	var b strings.Builder
	for _, s := range t.ByUnit() {
		fmt.Fprintf(&b, "%-12s tasks=%-6d busy=%.6fs transfers=%d (%d bytes)\n",
			s.Unit, s.Tasks, s.Busy, s.Transfers, s.Bytes)
	}
	return b.String()
}

// published is the process-global "last run" slot backing pdlserved's
// /debug/trace endpoint: engines publish their trace at the end of Run, the
// server serves whatever was published last (net/http/pprof-style global
// observability state).
var published atomic.Pointer[Trace]

// Publish makes t the process's most recent trace.
func Publish(t *Trace) { published.Store(t) }

// Published returns the most recently published trace, or nil.
func Published() *Trace { return published.Load() }
