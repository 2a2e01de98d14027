package server

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// /debug/trace serves the process's most recently published trace in both
// export formats, and /metrics renders the runtime registry after the
// server's own families.
func TestDebugTraceEndpoint(t *testing.T) {
	prev := trace.Published()
	t.Cleanup(func() { trace.Publish(prev) })

	_, ts := newTestServer(t, Config{})

	// No published trace yet → 404.
	trace.Publish(nil)
	resp, _ := doReq(t, "GET", ts.URL+"/debug/trace", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty-process status = %d", resp.StatusCode)
	}

	tr := trace.New()
	tr.SetMeta("scheduler", "ws")
	tr.Record(trace.Event{Kind: trace.Task, Unit: "worker0", Label: "t", Start: 0, End: 1, TaskID: 0})
	tr.Record(trace.Event{Kind: trace.Task, Unit: "worker1", Label: "u", Start: 1, End: 2, TaskID: 1, ParentIDs: []int{0}, Worker: 1})
	trace.Publish(tr)

	// Default format: Chrome trace_event JSON, losslessly re-importable.
	resp, body := doReq(t, "GET", ts.URL+"/debug/trace", nil, nil)
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("chrome: status=%d type=%q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	got, err := trace.ReadBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Meta()["scheduler"] != "ws" {
		t.Fatalf("chrome round trip: len=%d meta=%v", got.Len(), got.Meta())
	}

	// ?format=jsonl streams the JSONL form.
	resp, body = doReq(t, "GET", ts.URL+"/debug/trace?format=jsonl", nil, nil)
	if resp.StatusCode != 200 || !strings.HasPrefix(string(body), `{"format":"pdltrace"`) {
		t.Fatalf("jsonl: status=%d body=%.60s", resp.StatusCode, body)
	}
	if got, err = trace.ReadBytes(body); err != nil || got.Len() != 2 {
		t.Fatalf("jsonl round trip: %v len=%d", err, got.Len())
	}

	resp, _ = doReq(t, "GET", ts.URL+"/debug/trace?format=svg", nil, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format status = %d", resp.StatusCode)
	}
}

func TestMetricsIncludesRuntimeRegistry(t *testing.T) {
	rt := metrics.New()
	rt.CounterVec("taskrt_test_tasks_total", "test family", "unit").With("worker0").Add(7)
	_, ts := newTestServer(t, Config{RuntimeMetrics: rt})
	resp, body := doReq(t, "GET", ts.URL+"/metrics", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := string(body)
	if !strings.Contains(out, `taskrt_test_tasks_total{unit="worker0"} 7`) {
		t.Fatalf("runtime family missing from /metrics:\n%s", out)
	}
	// Server families render first, runtime families after.
	if strings.Index(out, "pdlserved_") > strings.Index(out, "taskrt_test_") {
		t.Fatalf("registry order wrong:\n%s", out)
	}
}

// TestBuildInfoGauge: metrics.Default carries pdl_build_info with this
// binary's Go version, VCS revision ("unknown" in a test binary, which
// records none) and the BLAS tile init selected, and a server's /metrics
// serves it, as pdlworkerd's does through the same registry.
func TestBuildInfoGauge(t *testing.T) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	want := fmt.Sprintf(`pdl_build_info{go_version=%q,vcs_revision=%q,kernel_isa=%q,kernel_vector_bits="%d",kernel_tile=%q} 1`,
		runtime.Version(), rev, blas.KernelISA(), blas.KernelVectorBits(), blas.KernelTile())
	var b strings.Builder
	metrics.Default.WritePrometheus(&b)
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("metrics.Default has no line\n%s\nin:\n%s", want, b.String())
	}
	_, ts := newTestServer(t, Config{})
	if _, body := doReq(t, "GET", ts.URL+"/metrics", nil, nil); !strings.Contains(string(body), want+"\n") {
		t.Fatalf("/metrics has no line\n%s\nin:\n%s", want, body)
	}
}
