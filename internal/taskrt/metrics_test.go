package taskrt

import (
	"math"
	"strings"
	"testing"

	"repro/internal/discover"
	"repro/internal/simhw"
	"repro/internal/trace"
)

// Regression: recordReport set taskrt_unit_blacklisted to 1 for blacklisted
// units but never wrote 0 for healthy ones, so a unit blacklisted in one run
// kept reporting 1 forever after it recovered. The registry is process-wide,
// so unit ids here are unique to this test.
func TestRecordReportClearsBlacklistGauge(t *testing.T) {
	rep := &Report{
		Mode:        Real,
		PerUnit:     []UnitStats{{ID: "blgauge-w0"}, {ID: "blgauge-w1"}},
		Blacklisted: []string{"blgauge-w1"},
	}
	recordReport(rep)
	if got := rtm.blacklisted.With("blgauge-w0").Value(); got != 0 {
		t.Fatalf("healthy unit gauge = %v, want 0", got)
	}
	if got := rtm.blacklisted.With("blgauge-w1").Value(); got != 1 {
		t.Fatalf("blacklisted unit gauge = %v, want 1", got)
	}

	// The unit recovers: the next run reports it healthy, and the gauge must
	// drop back to 0 even though this run blacklists nobody.
	rep = &Report{
		Mode:    Real,
		PerUnit: []UnitStats{{ID: "blgauge-w0"}, {ID: "blgauge-w1"}},
	}
	recordReport(rep)
	if got := rtm.blacklisted.With("blgauge-w1").Value(); got != 0 {
		t.Fatalf("recovered unit gauge = %v, want 0 after healthy run", got)
	}
}

// TestSimTaskSecondsMatchSpans holds a Sim run's taskrt_task_seconds{unit} to
// its own trace: per unit, the count grows by the unit's task spans and the
// sum by their summed durations. The run that gives up after MaxAttempts
// checks the same on the error path, where only the tasks that completed
// before the last failure count.
func TestSimTaskSecondsMatchSpans(t *testing.T) {
	for _, tc := range []struct {
		name     string
		platform string
		faults   *FaultPlan
		submit   func(*Runtime)
		wantErr  bool
	}{
		{"completes", "xeon-2gpu", nil, func(rt *Runtime) { submitTiledGEMM(t, rt, 4, 256) }, false},
		{"gives up", "xeon-1core", &FaultPlan{Events: []FaultEvent{
			{Unit: "host", AfterTasks: 3, RecoverAfter: 1e-3},
			{Unit: "host", AfterTasks: 4, RecoverAfter: 1e-3},
			{Unit: "host", AfterTasks: 5, RecoverAfter: 1e-3},
		}}, func(rt *Runtime) { submitTiles(t, rt, 4, 1e9, 1<<20) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.New()
			rt, err := New(Config{
				Platform: discover.MustPlatform(tc.platform), Mode: Sim, Scheduler: "dmda",
				Trace: tr, Faults: tc.faults, Retry: RetryPolicy{MaxAttempts: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			tc.submit(rt)
			type totals struct {
				n   uint64
				sum float64
			}
			m, err := simhw.FromPlatform(discover.MustPlatform(tc.platform))
			if err != nil {
				t.Fatal(err)
			}
			before := map[string]totals{}
			for _, u := range m.Units {
				h := rtm.taskSeconds.With(u.ID)
				before[u.ID] = totals{h.Count(), h.Sum()}
			}
			if _, err := rt.Run(); (err != nil) != tc.wantErr {
				t.Fatalf("Run: err = %v, want an error: %v", err, tc.wantErr)
			}
			spans := map[string]totals{}
			for _, e := range tr.OfKind(trace.Task) {
				s := spans[e.Unit]
				spans[e.Unit] = totals{s.n + 1, s.sum + (e.End - e.Start)}
			}
			if len(spans) == 0 {
				t.Fatal("the run traced no task span")
			}
			for id, b := range before {
				h := rtm.taskSeconds.With(id)
				got := totals{h.Count() - b.n, h.Sum() - b.sum}
				want := spans[id]
				if got.n != want.n {
					t.Errorf("%s: count grew by %d, the trace has %d task spans", id, got.n, want.n)
				}
				if math.Abs(got.sum-want.sum) > 1e-9*math.Abs(want.sum) {
					t.Errorf("%s: sum grew by %g, the task spans last %g", id, got.sum, want.sum)
				}
			}
		})
	}
}

// TestFailedRunCountsAttempts: a run that gives up after MaxAttempts returns
// no Report, yet its failed attempts and requeues happened. Both engines count
// them where they happen: two failed attempts and one requeue for a task that
// fails twice under MaxAttempts 2.
func TestFailedRunCountsAttempts(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		cl   func(t *testing.T) *Codelet
	}{
		{"real", Config{Platform: cpuPlatform(t, 2), Mode: Real, Workers: 2},
			func(t *testing.T) *Codelet {
				cl, err := NewCodelet("always-fails", Impl{Arch: "x86", Func: func(*TaskContext) error { return errInjected }})
				if err != nil {
					t.Fatal(err)
				}
				return cl
			}},
		{"sim", Config{Platform: discover.MustPlatform("xeon-1core"), Mode: Sim, Scheduler: "ws",
			Faults: &FaultPlan{Events: []FaultEvent{
				{Unit: "host", AfterTasks: 1, RecoverAfter: 1e-3},
				{Unit: "host", AfterTasks: 2, RecoverAfter: 1e-3},
			}}},
			func(t *testing.T) *Codelet { return noopCodelet(t, "doomed") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Retry = RetryPolicy{MaxAttempts: 2}
			rt, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Submit(&Task{Codelet: tc.cl(t), Flops: 1e9}); err != nil {
				t.Fatal(err)
			}
			failures, retries, trips := rtm.failures.Value(), rtm.retries.Value(), rtm.watchdog.Value()
			if _, err := rt.Run(); err == nil || !strings.Contains(err.Error(), "failed 2 attempts") {
				t.Fatalf("err = %v", err)
			}
			if got := rtm.failures.Value() - failures; got != 2 {
				t.Errorf("taskrt_failed_attempts_total moved by %v, want 2", got)
			}
			if got := rtm.retries.Value() - retries; got != 1 {
				t.Errorf("taskrt_retries_total moved by %v, want 1", got)
			}
			if got := rtm.watchdog.Value() - trips; got != 0 {
				t.Errorf("taskrt_watchdog_trips_total moved by %v, want 0", got)
			}
		})
	}
}
