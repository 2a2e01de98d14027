package trace

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// richSample builds a trace exercising every event kind and causal field.
// All times are chosen so the seconds→microseconds→seconds round trip is
// exact in float64.
func richSample() *Trace {
	t := New()
	t.SetMeta("scheduler", "ws")
	t.SetMeta("mode", "real")
	t.Record(Event{Kind: Task, Unit: "worker0", Label: "root", Start: 0, End: 1, TaskID: 0})
	t.Record(Event{Kind: Transfer, Unit: "node1", Label: "A", Start: 0.5, End: 0.75, Bytes: 4096, TaskID: 1, Worker: 1, From: "node0"})
	t.Record(Event{Kind: Steal, Unit: "worker1", Start: 1, End: 1, TaskID: 1, Worker: 1, From: "worker0"})
	t.Record(Event{Kind: Task, Unit: "worker1", Label: "left", Start: 1, End: 2.25, TaskID: 1, ParentIDs: []int{0}, Worker: 1})
	t.Record(Event{Kind: Failure, Unit: "worker0", Label: "right", Start: 1, End: 1.5, TaskID: 2, ParentIDs: []int{0}})
	t.Record(Event{Kind: Blacklist, Unit: "worker0", Start: 1.5, End: 1.5, TaskID: NoTask})
	t.Record(Event{Kind: Retry, Unit: "worker0", Label: "right", Start: 1.5, End: 1.75, TaskID: 2, Attempt: 1})
	t.Record(Event{Kind: Task, Unit: "worker1", Label: "right", Start: 2.25, End: 3, TaskID: 2, ParentIDs: []int{0}, Attempt: 1, Worker: 1})
	t.Record(Event{Kind: Recover, Unit: "worker0", Start: 2, End: 2, TaskID: NoTask})
	t.Record(Event{Kind: Task, Unit: "worker1", Label: "join", Start: 3, End: 3.5, TaskID: 3, ParentIDs: []int{1, 2}, Worker: 1})
	return t
}

// sameTrace asserts two traces carry identical events, metadata and drop
// count.
func sameTrace(t *testing.T, want, got *Trace) {
	t.Helper()
	we, ge := want.Events(), got.Events()
	if len(we) != len(ge) {
		t.Fatalf("event count = %d; want %d", len(ge), len(we))
	}
	for i := range we {
		if !reflect.DeepEqual(we[i], ge[i]) {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, ge[i], we[i])
		}
	}
	if !reflect.DeepEqual(want.Meta(), got.Meta()) {
		t.Fatalf("meta = %v; want %v", got.Meta(), want.Meta())
	}
	if want.Dropped() != got.Dropped() {
		t.Fatalf("dropped = %d; want %d", got.Dropped(), want.Dropped())
	}
}

// The Chrome exporter's output is deterministic, so it is pinned to a golden
// file (refresh with go test ./internal/trace -run Golden -update).
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := richSample().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome output drifted from %s (re-run with -update if intended):\n%s", golden, buf.String())
	}
}

// Chrome files written before args became the Event's own encoding (a
// hand-written subset of the same keys, times only as ts/dur microseconds)
// must keep reading back: chrome.v1.golden.json is richSample as the
// exporter wrote it then.
func TestChromeReadsV1Files(t *testing.T) {
	got, err := ReadFile(filepath.Join("testdata", "chrome.v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, richSample(), got)
}

// The Chrome file carries full span identity in args, so importing it back
// must reproduce the original trace exactly — including flow-event sources
// being skipped rather than misread as spans.
func TestChromeRoundTrip(t *testing.T) {
	tr := richSample()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, tr, got)
}

func TestChromeFlowEvents(t *testing.T) {
	var buf bytes.Buffer
	if err := richSample().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Dependency arrows: join has two parents, left/right one each → 4 flow
	// pairs; the steal adds one more.
	if n := strings.Count(out, `"name": "dep"`); n != 8 {
		t.Fatalf("dep flow events = %d; want 8 (4 s/f pairs)", n)
	}
	if n := strings.Count(out, `"name": "steal"`); n != 3 {
		// One instant event plus the s/f arrow pair.
		t.Fatalf("steal events = %d; want 3", n)
	}
	for _, want := range []string{`"name": "process_name"`, `"name": "thread_name"`, `"name": "thread_sort_index"`, `"displayTimeUnit": "ms"`, `"scheduler": "ws"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome output lacks %s", want)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := richSample()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Header first, one event per line.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+tr.Len() {
		t.Fatalf("lines = %d; want %d", len(lines), 1+tr.Len())
	}
	if !strings.Contains(lines[0], `"format":"pdltrace"`) {
		t.Fatalf("header = %s", lines[0])
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, tr, got)
}

// ReadBytes sniffs the format, so both exporters feed the same readers
// (pdltrace convert, pdlserved -trace).
func TestReadBytesSniffsBothFormats(t *testing.T) {
	tr := richSample()
	var chrome, jsonl bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"chrome": chrome.Bytes(), "jsonl": jsonl.Bytes()} {
		got, err := ReadBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameTrace(t, tr, got)
	}
}

func TestReadBytesRejectsGarbage(t *testing.T) {
	for _, data := range []string{"", "not json", `{"some":"object"}`, `{"format":"other","version":1}`} {
		if _, err := ReadBytes([]byte(data)); err == nil {
			t.Fatalf("ReadBytes(%q) accepted garbage", data)
		}
	}
}

func TestReadFileRoundTrip(t *testing.T) {
	tr := richSample()
	dir := t.TempDir()
	chrome := filepath.Join(dir, "t.json")
	jsonl := filepath.Join(dir, "t.jsonl")
	if err := tr.WriteFile(chrome, FormatChrome); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteFile(jsonl, FormatJSONL); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteFile(filepath.Join(dir, "t.svg"), "svg"); err == nil {
		t.Fatal("WriteFile accepted an unknown format")
	}
	for _, path := range []string{chrome, jsonl} {
		got, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sameTrace(t, tr, got)
	}
}

func TestPublish(t *testing.T) {
	prev := Published()
	defer Publish(prev)
	tr := richSample()
	Publish(tr)
	if Published() != tr {
		t.Fatal("Published did not return the published trace")
	}
}

// Place events carry the modelled transfer charge of the placement decision;
// the Chrome serialisation must round-trip it (and omit it when zero).
func TestChromePlaceTransferRoundTrip(t *testing.T) {
	tr := New()
	tr.SetMeta("scheduler", "dmda")
	tr.Record(Event{Kind: Place, Unit: "worker1", Label: "gemm", Start: 1, End: 1,
		TaskID: 4, Worker: 1, From: "model", Transfer: 0.25})
	tr.Record(Event{Kind: Place, Unit: "worker0", Label: "gemm", Start: 2, End: 2,
		TaskID: 5, From: "model"})
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"transfer": 0.25`) {
		t.Fatal("chrome output lacks the transfer arg")
	}
	got, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, tr, got)
}

// fullEvent returns an Event with every exported field set to a distinct
// non-zero value, by reflection: a field added to Event is filled here
// without anyone remembering to.
func fullEvent(t *testing.T) Event {
	t.Helper()
	var e Event
	v := reflect.ValueOf(&e).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(v.Type().Field(i).Name)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Slice:
			f.Set(reflect.ValueOf([]int{i, i + 1}))
		default:
			t.Fatalf("Event.%s has kind %s: teach fullEvent to fill it", v.Type().Field(i).Name, f.Kind())
		}
	}
	return e
}

// One schema: whatever fields Event has, both file formats carry all of
// them. Fails the day someone adds a field one format does not round-trip.
func TestEventSchemaOnce(t *testing.T) {
	e := fullEvent(t)
	v := reflect.ValueOf(e)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("fullEvent left Event.%s zero", v.Type().Field(i).Name)
		}
	}
	tr := New()
	tr.SetMeta("scheduler", "dmda")
	tr.Record(e)
	for _, format := range []string{FormatChrome, FormatJSONL} {
		var buf bytes.Buffer
		if err := formats[format].write(tr, &buf); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		got, err := ReadBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		sameTrace(t, tr, got)
	}
}

// Exports are deterministic: the same events recorded in any order — two
// dmda Place instants in the same nanosecond included — produce the same
// bytes in both formats.
func TestExportOrderIsTotal(t *testing.T) {
	events := richSample().Events()
	for id := 10; id < 14; id++ { // same start, unit and label: ordered by task id
		events = append(events, Event{Kind: Place, Unit: "worker0", Label: "gemm", Start: 2, End: 2, TaskID: id, From: "model"})
	}
	events = append(events,
		Event{Kind: Task, Unit: "worker0", Label: "gemm", Start: 2, End: 3, TaskID: 10, Node: "w2"},
		Event{Kind: Task, Unit: "worker0", Label: "gemm", Start: 2, End: 3, TaskID: 10, Node: "w1"},
		Event{Kind: Failure, Unit: "worker0", Label: "gemm", Start: 2, End: 3, TaskID: 10, Node: "w1"},
		Event{Kind: Failure, Unit: "worker0", Label: "gemm", Start: 2, End: 3, TaskID: 10, Node: "w1", Attempt: 1})
	export := func(order []int) (chrome, jsonl string) {
		tr := New()
		for _, i := range order {
			tr.Record(events[i])
		}
		var c, j bytes.Buffer
		if err := tr.WriteChrome(&c); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		return c.String(), j.String()
	}
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	wantChrome, wantJSONL := export(order)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		chrome, jsonl := export(order)
		if chrome != wantChrome || jsonl != wantJSONL {
			t.Fatalf("round %d: export depends on recording order %v", round, order)
		}
	}
}

// A drop count must survive both file formats: a re-read timeline that lost
// spans says so.
func TestDroppedRoundTrips(t *testing.T) {
	tr := richSample()
	tr.SetLimit(7)
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d; want 3", tr.Dropped())
	}
	for _, format := range []string{FormatChrome, FormatJSONL} {
		path := filepath.Join(t.TempDir(), "t")
		if err := tr.WriteFile(path, format); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sameTrace(t, tr, got)
		if got.DroppedTotal() != 3 {
			t.Fatalf("%s: DroppedTotal = %d; want 3", format, got.DroppedTotal())
		}
	}
}
