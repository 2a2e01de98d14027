package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

func writeSample(t *testing.T, path string) {
	t.Helper()
	tr := trace.New()
	tr.SetMeta("scheduler", "ws")
	tr.Record(trace.Event{Kind: trace.Task, Unit: "worker0", Label: "root", Start: 0, End: 1, TaskID: 0})
	tr.Record(trace.Event{Kind: trace.Steal, Unit: "worker1", Start: 1, End: 1, TaskID: 1, Worker: 1, From: "worker0"})
	tr.Record(trace.Event{Kind: trace.Task, Unit: "worker1", Label: "leaf", Start: 1, End: 3, TaskID: 1, ParentIDs: []int{0}, Worker: 1})
	if err := tr.WriteFile(path, trace.FormatChrome); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	in := filepath.Join(t.TempDir(), "t.json")
	writeSample(t, in)
	var out strings.Builder
	if err := run([]string{"summarize", "-gantt", in}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"3 events", "2 task executions on 2 units",
		"scheduler=ws", "1 steals",
		"critical path: 2 tasks, 3.000000s (100% of makespan)",
		"worker0", "worker1", "gantt:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summarize lacks %q:\n%s", want, out.String())
		}
	}
}

func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "t.json")
	writeSample(t, in)
	jsonl := filepath.Join(dir, "t.jsonl")
	back := filepath.Join(dir, "back.json")
	var out strings.Builder
	if err := run([]string{"convert", in, jsonl}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"convert", "-to", "chrome", jsonl, back}, &out); err != nil {
		t.Fatal(err)
	}
	a, err := trace.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.Makespan() != b.Makespan() {
		t.Fatalf("round trip drifted: %d/%g vs %d/%g", a.Len(), a.Makespan(), b.Len(), b.Makespan())
	}
}

func TestDiff(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "t.json")
	writeSample(t, in)
	var out strings.Builder
	if err := run([]string{"diff", in, in}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"makespan[s]", "+0.0%", "unit busy[s]", "worker1"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("diff lacks %q:\n%s", want, out.String())
		}
	}
}

func TestMerge(t *testing.T) {
	dir := t.TempDir()
	// Each node's buffer overflowed before its one surviving span: lost
	// spans lost on the node.
	writeNode := func(name string, epochMicros int64, lost int, path string) {
		tr := trace.New()
		tr.SetMeta(trace.MetaNode, name)
		tr.SetMeta(trace.MetaEpochMicros, fmt.Sprintf("%d", epochMicros))
		tr.SetLimit(1)
		for i := 0; i < lost; i++ {
			tr.Record(trace.Event{Kind: trace.Task, Unit: "worker0", Label: "lost", TaskID: 100 + i})
		}
		tr.Record(trace.Event{Kind: trace.Task, Unit: "worker0", Label: name + "-task", Start: 0, End: 0.5, TaskID: 0})
		if err := tr.WriteFile(path, trace.FormatJSONL); err != nil {
			t.Fatal(err)
		}
	}
	inA := filepath.Join(dir, "a.jsonl")
	inB := filepath.Join(dir, "b.jsonl")
	writeNode("alpha", 1_000_000, 2, inA)
	writeNode("beta", 1_500_000, 3, inB)

	merged := filepath.Join(dir, "merged.jsonl")
	var out strings.Builder
	if err := run([]string{"merge", "-o", merged, inA, inB}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 inputs") || !strings.Contains(out.String(), "2 node lanes") {
		t.Fatalf("merge summary wrong:\n%s", out.String())
	}
	tr, err := trace.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("merged %d events, want 2", len(events))
	}
	// beta started 0.5s after alpha: its span must shift accordingly.
	var betaStart float64 = -1
	for _, e := range events {
		if e.Node == "beta" {
			betaStart = e.Start
		}
	}
	if betaStart != 0.5 {
		t.Fatalf("beta epoch not aligned: start %v, want 0.5", betaStart)
	}

	// Chrome output gets per-node process lanes.
	chrome := filepath.Join(dir, "merged.json")
	if err := run([]string{"merge", "-o", chrome, inA, inB}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"node:alpha"`, `"node:beta"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("chrome merge lacks %s process lane", want)
		}
	}

	// The merged timeline, in either format, still says 2 + 3 spans were lost.
	for _, path := range []string{merged, chrome} {
		out.Reset()
		if err := run([]string{"summarize", path}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "lost:  5 events dropped") {
			t.Fatalf("summarize %s does not report the inputs' 5 dropped events:\n%s", path, out.String())
		}
	}
}

func TestBadInvocations(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"summarize"},
		{"convert", "only-one"},
		{"diff", "one"},
		{"merge"},
		{"summarize", filepath.Join(t.TempDir(), "missing.json")},
	} {
		if err := run(args, &out); err == nil {
			t.Fatalf("run(%v) succeeded; want error", args)
		}
	}
}
