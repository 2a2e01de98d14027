// Command pdltrace inspects and converts runtime traces recorded by the
// task runtime (Config.Trace): summarize per-unit utilization and the
// critical path, convert between the Chrome trace_event JSON and pdltrace
// JSONL formats, and diff two traces A/B. Both input formats are sniffed, so
// any trace written by pdlbench -trace, examples/dgemm -trace or pdlserved's
// /debug/trace endpoint works everywhere a file is expected.
//
// Usage:
//
//	pdltrace summarize out.json
//	pdltrace convert out.json out.jsonl
//	pdltrace convert -to chrome out.jsonl perfetto.json
//	pdltrace diff before.json after.json
//	pdltrace merge -o cluster.json master.jsonl worker-a.jsonl worker-b.jsonl
//	pdltrace top -by node,codelet cluster.json
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pdltrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: pdltrace <summarize|convert|diff> [args]")
	}
	switch cmd := args[0]; cmd {
	case "summarize":
		return summarize(args[1:], stdout)
	case "convert":
		return convert(args[1:], stdout)
	case "diff":
		return diff(args[1:], stdout)
	case "merge":
		return merge(args[1:], stdout)
	case "top":
		return top(args[1:], stdout)
	default:
		return fmt.Errorf("unknown command %q (want summarize, convert, diff, merge or top)", cmd)
	}
}

// summarize prints run metadata, the critical path, and per-unit
// utilization with the steal/retry/failure breakdown.
func summarize(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdltrace summarize", flag.ContinueOnError)
	fs.SetOutput(stdout)
	gantt := fs.Bool("gantt", false, "also render the textual Gantt chart")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: pdltrace summarize [-gantt] <trace-file>")
	}
	tr, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	makespan := tr.Makespan()
	units := tr.ByUnit()
	tasks, steals, retries, failures, transfers := 0, 0, 0, 0, 0
	for _, u := range units {
		tasks += u.Tasks
		steals += u.Steals
		retries += u.Retries
		failures += u.Failures
		transfers += u.Transfers
	}
	fmt.Fprintf(stdout, "trace: %d events, makespan %.6fs, %d task executions on %d units\n",
		tr.Len(), makespan, tasks, len(units))
	if meta := tr.Meta(); len(meta) > 0 {
		var pairs []string
		for _, k := range sortedKeys(meta) {
			pairs = append(pairs, fmt.Sprintf("%s=%s", k, meta[k]))
		}
		fmt.Fprintf(stdout, "meta:  %s\n", strings.Join(pairs, " "))
	}
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(stdout, "lost:  %d events dropped by a full buffer before they could be read\n", d)
	}
	if steals+retries+failures+transfers > 0 {
		fmt.Fprintf(stdout, "flow:  %d steals, %d retries, %d failures, %d transfers\n",
			steals, retries, failures, transfers)
	}

	cp := tr.CriticalPath()
	if len(cp.TaskIDs) > 0 {
		frac := 0.0
		if makespan > 0 {
			frac = cp.Length / makespan * 100
		}
		fmt.Fprintf(stdout, "critical path: %d tasks, %.6fs (%.0f%% of makespan)\n",
			len(cp.TaskIDs), cp.Length, frac)
		for i, e := range cp.Events {
			if i == 8 && len(cp.Events) > 9 {
				fmt.Fprintf(stdout, "  ... %d more\n", len(cp.Events)-i)
				break
			}
			fmt.Fprintf(stdout, "  #%-5d %-10s %.6fs  %s\n", cp.TaskIDs[i], e.Unit, e.Duration(), e.Label)
		}
	}

	fmt.Fprintf(stdout, "%-12s %6s %10s %6s %7s %8s %9s\n",
		"unit", "tasks", "busy[s]", "util", "steals", "retries", "failures")
	for _, u := range units {
		util := 0.0
		if makespan > 0 {
			util = u.Busy / makespan * 100
		}
		fmt.Fprintf(stdout, "%-12s %6d %10.6f %5.0f%% %7d %8d %9d\n",
			u.Unit, u.Tasks, u.Busy, util, u.Steals, u.Retries, u.Failures)
	}
	if *gantt {
		fmt.Fprint(stdout, tr.Gantt(72))
	}
	return nil
}

// convert rewrites a trace into the other format (or an explicit -to).
func convert(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdltrace convert", flag.ContinueOnError)
	fs.SetOutput(stdout)
	to := fs.String("to", "", "output format: chrome or jsonl (default: by output extension, .jsonl → jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: pdltrace convert [-to chrome|jsonl] <in> <out>")
	}
	in, out := fs.Arg(0), fs.Arg(1)
	format := cmp.Or(*to, formatOf(out))
	tr, err := trace.ReadFile(in)
	if err != nil {
		return err
	}
	if err := tr.WriteFile(out, format); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%s, %d events)\n", out, format, tr.Len())
	return nil
}

// formatOf picks an output file's format by its extension: .jsonl is JSONL,
// anything else Chrome JSON.
func formatOf(path string) string {
	if strings.HasSuffix(path, ".jsonl") {
		return trace.FormatJSONL
	}
	return trace.FormatChrome
}

// merge combines per-node traces (pdlworkerd -trace outputs plus the
// master's) into one cluster-wide timeline: events keep or inherit their
// node identity, wall-clock epochs align the time bases when every input
// carries one, and the Chrome export lays each node out as its own process
// with per-unit lanes.
func merge(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdltrace merge", flag.ContinueOnError)
	fs.SetOutput(stdout)
	out := fs.String("o", "merged.json", "output file (.jsonl → JSONL, otherwise Chrome JSON)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: pdltrace merge [-o merged.json] <trace-file>...")
	}
	inputs := make([]*trace.Trace, 0, fs.NArg())
	for _, path := range fs.Args() {
		tr, err := trace.ReadFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		inputs = append(inputs, tr)
	}
	merged, err := trace.Merge(inputs...)
	if err != nil {
		return err
	}
	if err := merged.WriteFile(*out, formatOf(*out)); err != nil {
		return err
	}
	nodes := map[string]bool{}
	for _, e := range merged.Events() {
		if e.Node != "" {
			nodes[e.Node] = true
		}
	}
	fmt.Fprintf(stdout, "wrote %s (%d inputs, %d events, %d node lanes, makespan %.6fs)\n",
		*out, len(inputs), merged.Len(), len(nodes), merged.Makespan())
	return nil
}

// top aggregates a (usually merged cluster) trace's execution spans along
// chosen dimensions and prints the heaviest groups by busy time — the quick
// "where did the cluster's time go" view that a Perfetto load is overkill
// for.
func top(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdltrace top", flag.ContinueOnError)
	fs.SetOutput(stdout)
	by := fs.String("by", "node,codelet", "comma-separated grouping dimensions: node, unit, worker, codelet, label")
	n := fs.Int("n", 20, "rows to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: pdltrace top [-by dims] [-n rows] <trace-file>")
	}
	var dims []string
	for _, d := range strings.Split(*by, ",") {
		switch d = strings.TrimSpace(d); d {
		case "node", "unit", "worker", "codelet", "label":
			dims = append(dims, d)
		case "":
		default:
			return fmt.Errorf("unknown dimension %q (want node, unit, worker, codelet or label)", d)
		}
	}
	if len(dims) == 0 {
		return fmt.Errorf("-by needs at least one dimension")
	}
	tr, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	type row struct {
		key           string
		tasks, failed int
		busy, longest float64
	}
	rows := map[string]*row{}
	totalBusy := 0.0
	for _, e := range tr.Events() {
		if e.Kind != trace.Task && e.Kind != trace.Failure {
			continue
		}
		parts := make([]string, len(dims))
		for i, d := range dims {
			parts[i] = dimValue(&e, d)
		}
		key := strings.Join(parts, " ")
		r, ok := rows[key]
		if !ok {
			r = &row{key: key}
			rows[key] = r
		}
		d := e.Duration()
		r.tasks++
		if e.Kind == trace.Failure {
			r.failed++
		}
		r.busy += d
		if d > r.longest {
			r.longest = d
		}
		totalBusy += d
	}
	if len(rows) == 0 {
		fmt.Fprintln(stdout, "no execution spans in trace")
		return nil
	}

	sorted := make([]*row, 0, len(rows))
	keyWidth := len(*by)
	for _, r := range rows {
		sorted = append(sorted, r)
		if len(r.key) > keyWidth {
			keyWidth = len(r.key)
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].busy != sorted[j].busy {
			return sorted[i].busy > sorted[j].busy
		}
		return sorted[i].key < sorted[j].key
	})
	if *n > 0 && len(sorted) > *n {
		fmt.Fprintf(stdout, "top %d of %d groups (by busy time)\n", *n, len(sorted))
		sorted = sorted[:*n]
	}
	fmt.Fprintf(stdout, "%-*s %6s %6s %10s %9s %9s %6s\n",
		keyWidth, *by, "tasks", "failed", "busy[s]", "mean[ms]", "max[ms]", "share")
	for _, r := range sorted {
		share := 0.0
		if totalBusy > 0 {
			share = r.busy / totalBusy * 100
		}
		fmt.Fprintf(stdout, "%-*s %6d %6d %10.6f %9.3f %9.3f %5.1f%%\n",
			keyWidth, r.key, r.tasks, r.failed, r.busy,
			r.busy/float64(r.tasks)*1e3, r.longest*1e3, share)
	}
	return nil
}

// dimValue extracts one grouping dimension from an execution span. Missing
// values render as "-" so single-node traces still group cleanly.
func dimValue(e *trace.Event, dim string) string {
	switch dim {
	case "node":
		if e.Node == "" {
			return "-"
		}
		return e.Node
	case "unit":
		return e.Unit
	case "worker":
		return fmt.Sprintf("%d", e.Worker)
	case "codelet":
		return codeletOf(e.Label)
	default: // label
		return e.Label
	}
}

// codeletOf strips a task label like "dgemm(3,4)" or "C[0,1]+=A[0,0]*B[0,1]"
// to its kernel-family prefix, so per-tile instances group into one row.
func codeletOf(label string) string {
	if i := strings.IndexAny(label, "(["); i > 0 {
		return label[:i]
	}
	if label == "" {
		return "-"
	}
	return label
}

// diff compares two traces: totals first, then per-unit busy-time deltas.
func diff(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdltrace diff", flag.ContinueOnError)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: pdltrace diff <before> <after>")
	}
	a, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := trace.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}

	type totals struct {
		makespan, critical               float64
		tasks, steals, retries, failures int
	}
	tally := func(t *trace.Trace) totals {
		var out totals
		out.makespan = t.Makespan()
		out.critical = t.CriticalPath().Length
		for _, u := range t.ByUnit() {
			out.tasks += u.Tasks
			out.steals += u.Steals
			out.retries += u.Retries
			out.failures += u.Failures
		}
		return out
	}
	ta, tb := tally(a), tally(b)

	rel := func(x, y float64) string {
		if x == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", (y-x)/x*100)
	}
	fmt.Fprintf(stdout, "%-14s %14s %14s %8s\n", "metric", "before", "after", "delta")
	row := func(name string, x, y float64, format string) {
		fmt.Fprintf(stdout, "%-14s "+format+" "+format+" %8s\n", name, x, y, rel(x, y))
	}
	row("makespan[s]", ta.makespan, tb.makespan, "%14.6f")
	row("critpath[s]", ta.critical, tb.critical, "%14.6f")
	row("tasks", float64(ta.tasks), float64(tb.tasks), "%14.0f")
	row("steals", float64(ta.steals), float64(tb.steals), "%14.0f")
	row("retries", float64(ta.retries), float64(tb.retries), "%14.0f")
	row("failures", float64(ta.failures), float64(tb.failures), "%14.0f")

	// Per-unit busy deltas for units present in both traces.
	busyA := map[string]float64{}
	for _, u := range a.ByUnit() {
		busyA[u.Unit] = u.Busy
	}
	printedHeader := false
	for _, u := range b.ByUnit() {
		before, ok := busyA[u.Unit]
		if !ok {
			continue
		}
		if !printedHeader {
			fmt.Fprintf(stdout, "%-14s %14s %14s %8s\n", "unit busy[s]", "before", "after", "delta")
			printedHeader = true
		}
		fmt.Fprintf(stdout, "%-14s %14.6f %14.6f %8s\n", u.Unit, before, u.Busy, rel(before, u.Busy))
	}
	return nil
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
