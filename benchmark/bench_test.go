package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/discover"
	"repro/internal/pdlxml"
	"repro/internal/registry"
)

// TestMain lets the test binary stand in for the benchmark binary when
// keepAwake re-executes it as a spinner.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == idleSpinArg {
		idleSpin()
	}
	os.Exit(m.Run())
}

func TestKeepAwakeStopsItsSpinners(t *testing.T) {
	stop, err := keepAwake(2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		stop() // closes each spinner's standard input and waits for it
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("spinners still running 10 s after stop")
	}
}

func TestQuantileMatchesPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) for n >= 3; below
	// that Python extrapolates and quantile clamps to the sample range.
	cases := []struct {
		name           string
		in             []float64
		q1, median, q3 float64
	}{
		{"five", []float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{"four", []float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{"ties", []float64{2, 2, 5, 2, 2}, 2, 2, 3.5},
		{"all-equal", []float64{7, 7, 7}, 7, 7, 7},
		{"ten", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{"three", []float64{10, 20, 40}, 10, 20, 40},
		{"two-clamped", []float64{1, 3}, 1, 2, 3},
		{"one", []float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		s := summarize(c.in)
		if s.N != len(c.in) || s.Q1 != c.q1 || s.Median != c.median || s.Q3 != c.q3 {
			t.Errorf("%s: got n=%d q1=%g median=%g q3=%g, want %g %g %g", c.name, s.N, s.Q1, s.Median, s.Q3, c.q1, c.median, c.q3)
		}
	}
	if s := summarize(nil); s.N != 0 || s.relSpread() != 0 {
		t.Errorf("empty sample: %+v", s)
	}
	if got := summarize([]float64{1, 2, 3, 4}).relSpread(); got != 1 {
		t.Errorf("relSpread = %g, want (3.75-1.25)/2.5 = 1", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 0.50}, {9, 0.50}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {99, 0.75},
		{100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {100000, 0.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	for _, w := range workloads {
		// Lower is allowed (serve-write and dispatch-fork report p75: see README).
		if got := tailPercentile(w.nominalN); got < w.tailP {
			t.Errorf("%s: tail fixed at p%g but %d nominal operations allow only p%g", w.name, w.tailP*100, w.nominalN, got*100)
		}
	}
}

func TestGeneratorsAreFunctionsOfTheSeed(t *testing.T) {
	platforms := servedPlatforms()
	if len(platforms) != 6 {
		t.Fatalf("served platforms = %v, want the six fixed catalog entries", platforms)
	}
	gen := func(seed int64) string {
		catalog := filterCatalog(platforms, seed)
		reqs := genRequests(seed, writeMix, 500, catalog, platforms[:3], platforms[:2])
		reqs = append(reqs, genRequests(seed, readMix, 500, catalog, platforms[:3], nil)...)
		return fmt.Sprint(poissonSchedule(seed, 1000, 500), catalog, reqs)
	}
	if gen(7) != gen(7) {
		t.Error("equal seeds generated different inputs")
	}
	if gen(7) == gen(8) {
		t.Error("different seeds generated identical inputs")
	}
	if n := len(filterCatalog(platforms, 1)); n != 1560 {
		t.Errorf("filter catalog has %d entries, want 6 × 4 × 5 × 13 = 1560", n)
	}

	// The schedule is a Poisson process: ascending, mean gap 1/rate.
	sched := poissonSchedule(3, 1000, 20000)
	for i := 1; i < len(sched); i++ {
		if sched[i] < sched[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	if gap := sched[len(sched)-1].Seconds() / float64(len(sched)); math.Abs(gap-1e-3) > 5e-5 {
		t.Errorf("mean gap %g s, want 1 ms", gap)
	}

	// The mixes hold, and write traffic stays on the hot platforms.
	counts := map[reqKind]int{}
	hot := map[string]bool{platforms[0]: true, platforms[1]: true}
	for _, r := range genRequests(5, writeMix, 20000, filterCatalog(platforms, 5), platforms[:3], platforms[:2]) {
		counts[r.Kind]++
		if !hot[r.Platform] {
			t.Fatalf("%v request on cold platform %s", r.Kind, r.Platform)
		}
	}
	for kind, share := range writeMix {
		if got := 100 * float64(counts[reqKind(kind)]) / 20000; math.Abs(got-float64(share)) > 1.5 {
			t.Errorf("write mix: %v is %.1f%%, want %d%%", reqKind(kind), got, share)
		}
	}
}

func TestLatencyIsTimedFromTheDueTime(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name                    string
		due, sent, done         time.Duration
		wantLatency, wantLateBy time.Duration
	}{
		{"on time", 10 * ms, 10 * ms, 12 * ms, 2 * ms, 0},
		{"late sender", 10 * ms, 15 * ms, 18 * ms, 8 * ms, 5 * ms},
		{"stall charged to the request behind it", 1 * ms, 40 * ms, 41 * ms, 40 * ms, 39 * ms},
		{"early wake-up is not negative lateness", 10 * ms, 9 * ms, 11 * ms, 1 * ms, 0},
	} {
		latency, late := lateness(c.due, c.sent, c.done)
		if latency != c.wantLatency || late != c.wantLateBy {
			t.Errorf("%s: latency %v late %v, want %v %v", c.name, latency, late, c.wantLatency, c.wantLateBy)
		}
	}
}

func TestPutVariantsValidateAndChangeTheETag(t *testing.T) {
	reg := registry.New()
	for _, name := range servedPlatforms() {
		pl, err := discover.Platform(name)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := pdlxml.Marshal(pl)
		if err != nil {
			t.Fatal(err)
		}
		orig, _, err := reg.Put(name, doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tmpl, err := putTemplate(pl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := map[string]int{orig.ETag: 0}
		for k := 1; k <= 20; k++ {
			prepared, err := reg.Prepare(name, putVariant(tmpl, k)) // parse + schema validation
			if err != nil {
				t.Fatalf("%s variant %d rejected: %v", name, k, err)
			}
			if prev, dup := seen[prepared.ETag()]; dup {
				t.Fatalf("%s: variants %d and %d share ETag %s", name, prev, k, prepared.ETag())
			}
			seen[prepared.ETag()] = k
			if _, changed := reg.CommitPrepared(prepared); !changed {
				t.Fatalf("%s variant %d did not commit", name, k)
			}
		}
	}
}

func TestSpanSelfTimeExcludesChildren(t *testing.T) {
	sp := newSpanRecorder()
	top := sp.begin(1, "handler", -1)
	a := sp.begin(1, "parse", top)
	b := sp.begin(1, "query", top)
	sp.spans[top].Start, sp.spans[top].End = 0, 10
	sp.spans[a].Start, sp.spans[a].End = 1, 3
	sp.spans[b].Start, sp.spans[b].End = 4, 9
	sp.rename(b, "query:miss")
	got := sp.byName()
	for name, want := range map[string][2]float64{ // seconds, self seconds
		"handler":    {10, 3},
		"parse":      {2, 2},
		"query:miss": {5, 5},
	} {
		lt := got[name]
		if len(lt.each) != 1 || lt.medianMicros(false) != want[0]*1e6 || lt.medianMicros(true) != want[1]*1e6 {
			t.Errorf("%s: %+v, want seconds, self = %v", name, lt, want)
		}
	}
	if len(got) != 3 {
		t.Errorf("byName has %d names, want 3", len(got))
	}
	var none *spanRecorder // the end-to-end pass: no recorder, no spans
	none.timed(1, "x", none.begin(1, "y", -1), func() {})
	if len(none.byName()) != 0 {
		t.Error("nil recorder recorded spans")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	wide := []float64{70, 130, 80, 120, 100, 60, 140, 100, 90, 110}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight, tight, "PASS"},
		{"5% slower is inside the bound", lower, tight, scale(tight, 1.05), "PASS"},
		{"15% slower", lower, tight, scale(tight, 1.15), "FAIL"},
		{"15% more throughput", higher, tight, scale(tight, 1.15), "PASS"},
		{"15% less throughput", higher, tight, scale(tight, 0.85), "FAIL"},
		{"spread wider than the bound", lower, wide, wide, "UNRESOLVED"},
		{"wide, but every run of B beats every run of A", lower, wide, scale(wide, 0.3), "PASS"},
	} {
		if got := judge(c.def, c.a, c.b); got.Result != c.want {
			t.Errorf("%s: %s (worse %+.3f, spreads %.3f %.3f), want %s", c.name, got.Result, got.Worse, got.A.relSpread(), got.B.relSpread(), c.want)
		}
	}
}

// TestBenchmarkJSONMatchesTheTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q: %q", i, file.Workloads[i].Name, file.Workloads[i].Why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if g := file.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, g, d)
		}
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if g := file.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, g, d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke drives every workload through both passes at toy size, so the
// harness cannot rot unnoticed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once (~5 s)")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil { // the program runs from the repository root
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	out := t.TempDir() + "/smoke.json"
	if err := run([]string{"-smoke", "-out", out}); err != nil {
		t.Fatal(err)
	}
	f, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 2*len(workloads) {
		t.Fatalf("%d runs recorded, want both passes of %d workloads", len(f.Runs), len(workloads))
	}
	for _, r := range f.Runs {
		defs := endToEnd
		if r.Traced {
			defs = perLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d metrics=%d", r.Workload, r.Traced, r.Correct, r.Failed, r.Attempted, len(r.Metrics))
		}
		for _, d := range endToEnd {
			if !r.Traced && !(r.Metrics[d.Name].Value > 0) {
				t.Errorf("%s: %s = %g, want > 0", r.Workload, d.Name, r.Metrics[d.Name].Value)
			}
		}
	}
	// Comparing a file with itself passes or is unresolved, never fails.
	if err := compareFiles(os.Stderr, out, out); err != nil {
		t.Errorf("A/A of one file: %v", err)
	}
}
