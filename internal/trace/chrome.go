package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Chrome trace_event export: the JSON object format consumed by Perfetto
// and chrome://tracing. Each unit becomes one named thread lane under a
// single "pdl" process; task/transfer/failure/retry spans are complete ("X")
// events, steals/blacklists/recoveries are instants ("i"), dependency edges
// and steal provenance are flow events ("s"/"f") drawn as arrows between
// lanes. Timestamps are microseconds, per the format.
//
// A span's args are the Event's own JSON encoding — the same object a JSONL
// line holds — so ReadChrome reconstructs the original Trace losslessly: the
// Chrome file is a full serialisation, not just a rendering.

type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`
	Dur  float64         `json:"dur,omitempty"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	ID   int             `json:"id,omitempty"`
	BP   string          `json:"bp,omitempty"`
	S    string          `json:"s,omitempty"`
	Args json.RawMessage `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// chromeDropped is the otherData key that carries Trace.Dropped beside the
// metadata (the format has no other place for it); written only when
// non-zero, reserved as a metadata key.
const chromeDropped = "dropped"

const chromePid = 0

// usec converts trace seconds to trace_event microseconds.
func usec(s float64) float64 { return s * 1e6 }

// metaArgs encodes the one argument of a Chrome metadata event.
func metaArgs(key string, v any) json.RawMessage {
	b, _ := json.Marshal(map[string]any{key: v}) // a string or an int: cannot fail
	return b
}

// WriteChrome writes the trace in Chrome trace_event JSON. Output is
// deterministic for a given trace: lanes are sorted by unit id, events in
// export order (sortEvents), flow ids assigned in that order. Events from
// different cluster nodes (Event.Node) become separate trace processes —
// one pid per node, "pdl" (pid 0) for node-less events — so a merged
// multi-node trace renders with per-node lane groups in Perfetto.
func (t *Trace) WriteChrome(w io.Writer) error {
	events := t.Events()
	meta := t.Meta()
	if d := t.Dropped(); d > 0 {
		meta[chromeDropped] = strconv.FormatUint(d, 10)
	}

	// Process assignment: sorted node names → pids 1..n. Node-less events
	// share the historical "pdl" process: "" is not in the map, so it reads
	// as chromePid.
	pidOf := map[string]int{}
	var nodes []string
	for _, e := range events {
		if _, ok := pidOf[e.Node]; !ok && e.Node != "" {
			pidOf[e.Node] = 0
			nodes = append(nodes, e.Node)
		}
	}
	sort.Strings(nodes)
	for i, n := range nodes {
		pidOf[n] = chromePid + 1 + i
	}

	// Lane assignment: per process, sorted unit ids → tids 0..n-1.
	type laneKey struct {
		pid  int
		unit string
	}
	laneOf := map[laneKey]int{}
	unitsByPid := map[int][]string{}
	for _, e := range events {
		pid := pidOf[e.Node]
		k := laneKey{pid, e.Unit}
		if _, ok := laneOf[k]; !ok && e.Unit != "" {
			laneOf[k] = 0
			unitsByPid[pid] = append(unitsByPid[pid], e.Unit)
		}
	}
	var out []chromeEvent
	emitProcess := func(pid int, name string) {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: metaArgs("name", name),
		})
		units := unitsByPid[pid]
		sort.Strings(units)
		for i, u := range units {
			laneOf[laneKey{pid, u}] = i
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: i,
				Args: metaArgs("name", u),
			})
			out = append(out, chromeEvent{
				Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: i,
				Args: metaArgs("sort_index", i),
			})
		}
	}
	if len(unitsByPid[chromePid]) > 0 || len(nodes) == 0 {
		emitProcess(chromePid, "pdl")
	}
	for _, n := range nodes {
		emitProcess(pidOf[n], "node:"+n)
	}

	taskEvent := latestTasks(events) // dependency flow endpoints

	// arrow draws a flow from one (time, process, lane) to another.
	flowID := 0
	arrow := func(name string, ts0 float64, pid0, tid0 int, ts1 float64, pid1, tid1 int) {
		flowID++
		out = append(out,
			chromeEvent{Name: name, Cat: name, Ph: "s", ID: flowID, Ts: ts0, Pid: pid0, Tid: tid0},
			chromeEvent{Name: name, Cat: name, Ph: "f", BP: "e", ID: flowID, Ts: ts1, Pid: pid1, Tid: tid1})
	}
	for _, e := range events {
		pid := pidOf[e.Node]
		lane := laneOf[laneKey{pid, e.Unit}]
		args, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("trace: encoding %s event of task %d: %w", e.Kind, e.TaskID, err)
		}
		switch e.Kind {
		case Task, Transfer, Failure, Retry:
			out = append(out, chromeEvent{
				Name: cmp.Or(e.Label, e.Kind.String()), Cat: e.Kind.String(), Ph: "X",
				Ts: usec(e.Start), Dur: usec(e.Duration()),
				Pid: pid, Tid: lane, Args: args,
			})
			if e.Kind != Task {
				break
			}
			// Dependency arrows: parent end → child start.
			for _, p := range e.ParentIDs {
				if pe, ok := taskEvent[p]; ok {
					ppid := pidOf[pe.Node]
					arrow("dep", usec(pe.End), ppid, laneOf[laneKey{ppid, pe.Unit}], usec(e.Start), pid, lane)
				}
			}
		case Steal, Blacklist, Recover, Place, Straggler:
			out = append(out, chromeEvent{
				Name: e.Kind.String(), Cat: e.Kind.String(), Ph: "i",
				Ts: usec(e.Start), Pid: pid, Tid: lane, S: "t", Args: args,
			})
			// Steal arrows: victim lane → thief lane (same process: steals
			// never cross nodes).
			if victim, ok := laneOf[laneKey{pid, e.From}]; e.Kind == Steal && ok {
				arrow("steal", usec(e.Start), pid, victim, usec(e.Start), pid, lane)
			}
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeFile{
		TraceEvents:     out,
		DisplayTimeUnit: "ms",
		OtherData:       meta,
	})
}

// ReadChrome reconstructs a Trace from Chrome trace_event JSON previously
// produced by WriteChrome (metadata and flow events are consumed, spans are
// rebuilt from the Event each carries in args).
func ReadChrome(r io.Reader) (*Trace, error) {
	var file chromeFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("trace: decoding chrome trace: %w", err)
	}
	if file.TraceEvents == nil {
		return nil, fmt.Errorf("trace: chrome trace has no traceEvents")
	}
	t := New()
	for k, v := range file.OtherData {
		if k != chromeDropped {
			t.SetMeta(k, v)
			continue
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: chrome otherData.%s: %w", chromeDropped, err)
		}
		t.addDroppedLocked(n)
	}
	for _, ce := range file.TraceEvents {
		if ce.Ph != "X" && ce.Ph != "i" {
			continue // metadata and flow events carry no spans
		}
		// Chrome's microseconds stand in for the times of files written
		// before args carried start and end; the kind has no stand-in.
		e := Event{Kind: -1, Start: ce.Ts / 1e6, End: (ce.Ts + ce.Dur) / 1e6, TaskID: NoTask}
		if len(ce.Args) > 0 {
			if err := json.Unmarshal(ce.Args, &e); err != nil {
				return nil, fmt.Errorf("trace: chrome event %q: %w", ce.Name, err)
			}
		}
		if e.Kind < 0 {
			return nil, fmt.Errorf("trace: chrome event %q lacks args.kind (not a pdl trace?)", ce.Name)
		}
		t.events = append(t.events, e)
	}
	return t, nil
}
