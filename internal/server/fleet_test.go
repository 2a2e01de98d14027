package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// fakeWorker serves a minimal pdlworkerd-style exposition whose counter
// value is controllable, plus a switch to start failing scrapes.
type fakeWorker struct {
	execs atomic.Int64
	fail  atomic.Bool
	srv   *httptest.Server
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{}
	fw.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		if fw.fail.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, `# HELP taskrt_worker_executions_total Kernels executed.
# TYPE taskrt_worker_executions_total counter
taskrt_worker_executions_total{codelet="gemm",arch="x86"} %d
# HELP taskrt_worker_kernel_seconds Kernel latency.
# TYPE taskrt_worker_kernel_seconds histogram
taskrt_worker_kernel_seconds_bucket{codelet="gemm",le="0.1"} %d
taskrt_worker_kernel_seconds_bucket{codelet="gemm",le="+Inf"} %d
taskrt_worker_kernel_seconds_sum{codelet="gemm"} 0.5
taskrt_worker_kernel_seconds_count{codelet="gemm"} %d
# HELP pdlworkerd_uptime_seconds Not a taskrt_worker_ family; must not federate.
# TYPE pdlworkerd_uptime_seconds gauge
pdlworkerd_uptime_seconds 12
`, fw.execs.Load(), fw.execs.Load(), fw.execs.Load(), fw.execs.Load())
	}))
	t.Cleanup(fw.srv.Close)
	return fw
}

func scrapeMaster(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestFleetScrapeFederatesLeasedWorkers(t *testing.T) {
	s, ts := workerServer(t)
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	w1.execs.Store(3)
	w2.execs.Store(7)
	postJSON(t, ts.URL+"/workers/w1", WorkerInfo{ID: "w1", Addr: w1.srv.URL})
	postJSON(t, ts.URL+"/workers/w2", WorkerInfo{ID: "w2", Addr: w2.srv.URL})

	client := &http.Client{}
	fails := map[string]int{}
	s.scrapeFleet(client, fails)
	body := scrapeMaster(t, ts)

	for _, want := range []string{
		`taskrt_fleet_executions_total{node="w1",codelet="gemm",arch="x86"} 3`,
		`taskrt_fleet_executions_total{node="w2",codelet="gemm",arch="x86"} 7`,
		`taskrt_fleet_kernel_seconds_bucket{node="w1",codelet="gemm",le="+Inf"} 3`,
		`taskrt_fleet_kernel_seconds_count{node="w2",codelet="gemm"} 7`,
		`pdlserved_fleet_nodes 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("master /metrics missing %q", want)
		}
	}
	if strings.Contains(body, "pdlworkerd_uptime_seconds{node=") {
		t.Error("non-taskrt_worker_ family leaked into the federated export")
	}

	// Dedup: a second sweep replaces the snapshot — the updated value
	// appears exactly once, never summed with the previous scrape.
	w1.execs.Store(5)
	s.scrapeFleet(client, fails)
	body = scrapeMaster(t, ts)
	if n := strings.Count(body, `taskrt_fleet_executions_total{node="w1"`); n != 1 {
		t.Fatalf("w1 fleet counter appears %d times after two sweeps; want exactly 1", n)
	}
	if !strings.Contains(body, `taskrt_fleet_executions_total{node="w1",codelet="gemm",arch="x86"} 5`) {
		t.Error("second sweep did not replace w1's counter value")
	}
}

func TestFleetScrapeDropsDeadNodes(t *testing.T) {
	s, ts := workerServer(t)
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	w1.execs.Store(1)
	w2.execs.Store(1)
	postJSON(t, ts.URL+"/workers/w1", WorkerInfo{ID: "w1", Addr: w1.srv.URL})
	postJSON(t, ts.URL+"/workers/w2", WorkerInfo{ID: "w2", Addr: w2.srv.URL})

	client := &http.Client{}
	fails := map[string]int{}
	s.scrapeFleet(client, fails)
	if got := s.fleet.Nodes(); len(got) != 2 {
		t.Fatalf("nodes after first sweep = %v; want 2", got)
	}

	// Explicit deregistration removes the series immediately.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/workers/w2", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delete w2: %v status=%v", err, resp.StatusCode)
	}
	if body := scrapeMaster(t, ts); strings.Contains(body, `taskrt_fleet_executions_total{node="w2"`) {
		t.Error("w2 series survived explicit deregistration")
	}

	// A failing worker keeps its last snapshot for one bad sweep, then is
	// dropped on the second consecutive failure.
	w1.fail.Store(true)
	s.scrapeFleet(client, fails)
	if body := scrapeMaster(t, ts); !strings.Contains(body, `taskrt_fleet_executions_total{node="w1"`) {
		t.Error("w1 series vanished after a single failed scrape")
	}
	s.scrapeFleet(client, fails)
	if body := scrapeMaster(t, ts); strings.Contains(body, `taskrt_fleet_executions_total{node="w1"`) {
		t.Errorf("w1 series survived %d consecutive failed scrapes", fleetScrapeFailLimit)
	}

	// Recovery: the node re-appears on the next successful sweep.
	w1.fail.Store(false)
	s.scrapeFleet(client, fails)
	if body := scrapeMaster(t, ts); !strings.Contains(body, `taskrt_fleet_executions_total{node="w1"`) {
		t.Error("w1 series did not re-appear after the worker recovered")
	}
}
