// Package smoke is the multi-process cluster end-to-end test: real
// pdlserved and pdlworkerd binaries, worker discovery through the registry,
// and an in-process master running distributed tiled DGEMM against them —
// including a run where one worker process is SIGKILLed mid-flight and its
// tasks resubmit to the survivor.
//
// The test builds binaries and spawns processes, so it only runs when
// PDL_CLUSTER_SMOKE=1 is set (`make cluster-test`); plain `go test ./...`
// skips it.
package smoke

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

func TestClusterSmoke(t *testing.T) {
	if os.Getenv("PDL_CLUSTER_SMOKE") == "" {
		t.Skip("set PDL_CLUSTER_SMOKE=1 (or run `make cluster-test`) to run the multi-process smoke")
	}
	bin := buildBinaries(t)

	// Registry daemon, federating worker metrics fast enough for the test
	// to observe fleet series shortly after the kernels run.
	servedAddr := freeAddr(t)
	served := startProc(t, bin["pdlserved"], "-addr", servedAddr, "-access-log", "",
		"-fleet-scrape", "500ms")
	defer stopProc(served)
	base := "http://" + servedAddr
	ctl, err := client.New(base, client.WithRetry(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitHealthy(t, ctl)

	// Two worker daemons that discover the registry and lease themselves.
	workerA := startProc(t, bin["pdlworkerd"], "-addr", "127.0.0.1:0", "-name", "smoke-a",
		"-server", base, "-slots", "2")
	defer stopProc(workerA)
	workerB := startProc(t, bin["pdlworkerd"], "-addr", "127.0.0.1:0", "-name", "smoke-b",
		"-server", base, "-slots", "2")
	defer stopProc(workerB)
	nodes := waitWorkers(t, ctl, 2)
	t.Logf("discovered %d workers via %s/workers: %+v", len(nodes), base, nodes)

	t.Run("HappyPath", func(t *testing.T) {
		tr := trace.New()
		rep, verr := runMaster(t, nodes, 256, 64, tr, nil)
		if verr != nil {
			t.Fatalf("distributed result wrong: %v", verr)
		}
		if rep.Tasks != 64 {
			t.Fatalf("tasks = %d, want 64", rep.Tasks)
		}
		if len(rep.DeadNodes) != 0 || rep.Resubmissions != 0 {
			t.Fatalf("healthy run saw failures: %+v", rep)
		}
		// 4×4 C tiles, each the chain of its four k-steps: sixteen requests go
		// out, sixteen C tiles come back, and with residency following stream
		// order nothing bounces.
		if rep.Invocations != 16 || rep.Returns != 16 || rep.ReturnBytes == 0 {
			t.Fatalf("%d invocations, %d returns (%d bytes); want 16 chains and one written tile each", rep.Invocations, rep.Returns, rep.ReturnBytes)
		}
		both := 0
		for _, n := range rep.PerNode {
			if n.Tasks > 0 {
				both++
			}
			if n.NeedData != 0 {
				t.Errorf("node %s bounced %d dispatches in a healthy run", n.Name, n.NeedData)
			}
			if n.Stragglers != 0 {
				// Non-blocking: with ~50µs kernels, scheduler jitter alone
				// can exceed the 4x residual multiple. CI greps the metrics
				// artifact for the same signal without failing the build.
				t.Logf("note: healthy run flagged %d straggler(s) on %s (micro-kernel jitter)", n.Stragglers, n.Name)
			}
		}
		if both != 2 {
			t.Fatalf("work did not spread across both nodes: %+v", rep.PerNode)
		}
		t.Logf("happy path: %s", rep)

		merged := fetchMergedTrace(t, rep)
		checkFleetMetrics(t, base, rep)
		checkClusterMetrics(t)
		writeArtifacts(t, merged, base)
	})

	t.Run("WorkerKilledMidFlight", func(t *testing.T) {
		// A bigger graph — 64 chains of eight 128³ k-steps — so plenty of work
		// remains when the victim dies; kill smoke-b once the master has
		// dispatched a meaningful prefix.
		tr := trace.New()
		killed := make(chan struct{})
		go func() {
			defer close(killed)
			for tr.Len() < 80 {
				time.Sleep(10 * time.Millisecond)
			}
			workerB.Process.Kill()
		}()
		rep, verr := runMaster(t, nodes, 1024, 128, tr, nil)
		<-killed
		if verr != nil {
			t.Fatalf("result wrong after mid-flight kill: %v", verr)
		}
		if rep.Tasks != 512 {
			t.Fatalf("tasks = %d, want 512", rep.Tasks)
		}
		if len(rep.DeadNodes) != 1 || rep.DeadNodes[0] != "smoke-b" {
			t.Fatalf("dead nodes = %v, want [smoke-b]", rep.DeadNodes)
		}
		// Resubmissions count the member tasks of the chains the victim held:
		// eight k-steps behind each C tile.
		if rep.Resubmissions == 0 || rep.Resubmissions%8 != 0 {
			t.Fatalf("resubmissions = %d, want the members of at least one lost chain of 8", rep.Resubmissions)
		}
		t.Logf("failover: %s", rep)
	})
}

// fetchMergedTrace pulls the live merged cluster timeline over the HTTP
// debug surface (the same handler pdlbench -pprof mounts) and verifies it
// stitches worker-side kernel spans from both nodes with their causal
// identity intact.
func fetchMergedTrace(t *testing.T, rep *cluster.Report) *trace.Trace {
	t.Helper()
	debug := httptest.NewServer(cluster.DebugHandler())
	defer debug.Close()
	resp, err := http.Get(debug.URL + "/debug/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := trace.ReadBytes(body)
	if err != nil {
		t.Fatalf("parsing merged trace: %v", err)
	}
	spans := map[string]int{}
	taskIDs := map[int]bool{}
	for _, e := range merged.Events() {
		if e.Kind != trace.Task || e.Node == "" {
			continue
		}
		if e.Label == "" || e.End < e.Start {
			t.Fatalf("kernel span lost causal identity: %+v", e)
		}
		spans[e.Node]++
		taskIDs[e.TaskID] = true
	}
	for _, node := range []string{"smoke-a", "smoke-b"} {
		if spans[node] == 0 {
			t.Fatalf("merged trace has no kernel spans from %s (got %v)", node, spans)
		}
	}
	if len(taskIDs) != rep.Tasks {
		t.Fatalf("kernel spans cover %d distinct task ids, want %d", len(taskIDs), rep.Tasks)
	}
	t.Logf("merged trace: %d events, kernel spans per node %v", merged.Len(), spans)
	return merged
}

// checkFleetMetrics polls pdlserved's /metrics until the federated
// node-labelled kernel latency histograms from both workers appear — the
// scrape loop runs every 500ms, and the workers only grow those families
// once kernels have executed.
func checkFleetMetrics(t *testing.T, base string, rep *cluster.Report) {
	t.Helper()
	want := []string{
		`taskrt_fleet_kernel_seconds_bucket{node="smoke-a"`,
		`taskrt_fleet_kernel_seconds_bucket{node="smoke-b"`,
		`taskrt_fleet_executions_total{node="smoke-a"`,
		`taskrt_fleet_executions_total{node="smoke-b"`,
	}
	deadline := time.Now().Add(15 * time.Second)
	var body string
	for time.Now().Before(deadline) {
		body = fetchText(t, base+"/metrics")
		ok := true
		for _, w := range want {
			if !strings.Contains(body, w) {
				ok = false
				break
			}
		}
		if ok {
			t.Logf("fleet federation: both nodes' kernel histograms on %s/metrics", base)
			return
		}
		time.Sleep(250 * time.Millisecond)
	}
	t.Fatalf("federated fleet metrics never appeared; last scrape:\n%s", grepLines(body, "taskrt_fleet_"))
}

// checkClusterMetrics asserts the master-side stream families — what
// writeArtifacts saves as cluster_metrics.txt — carry a series per node after
// a healthy run: every invocation's round trip observed, no reconnect.
func checkClusterMetrics(t *testing.T) {
	t.Helper()
	var b strings.Builder
	metrics.Default.WritePrometheus(&b)
	if !strings.Contains(b.String(), "taskrt_cluster_invocation_tasks_count 16") {
		t.Errorf("master metrics lack the sixteen invocations' chain lengths:\n%s", grepLines(b.String(), "taskrt_cluster_invocation"))
	}
	for _, node := range []string{"smoke-a", "smoke-b"} {
		for _, series := range []string{
			`taskrt_cluster_exec_rtt_seconds_count{node="` + node + `"}`,
			`taskrt_cluster_stream_reconnects_total{node="` + node + `"} 0`,
		} {
			if !strings.Contains(b.String(), series) {
				t.Errorf("master metrics lack %s:\n%s", series, grepLines(b.String(), "taskrt_cluster_"))
			}
		}
	}
}

// writeArtifacts persists the merged Chrome trace and the metrics snapshots
// when PDL_SMOKE_ARTIFACTS names a directory — CI uploads these so a failed
// (or healthy) cluster run can be inspected in Perfetto after the fact.
func writeArtifacts(t *testing.T, merged *trace.Trace, base string) {
	t.Helper()
	dir := os.Getenv("PDL_SMOKE_ARTIFACTS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteFile(filepath.Join(dir, "cluster_trace.json"), trace.FormatChrome); err != nil {
		t.Fatal(err)
	}
	fleet := fetchText(t, base+"/metrics")
	if err := os.WriteFile(filepath.Join(dir, "fleet_metrics.txt"), []byte(fleet), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	metrics.Default.WritePrometheus(&b)
	if err := os.WriteFile(filepath.Join(dir, "cluster_metrics.txt"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote smoke artifacts to %s", dir)
}

// fetchText GETs a URL and returns its body as a string.
func fetchText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
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

// grepLines filters a text blob to the lines containing sub (for readable
// failure output).
func grepLines(text, sub string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		return "(no matching lines)"
	}
	return strings.Join(out, "\n")
}

// runMaster drives an in-process cluster master over a tiled C += A·B graph
// against the given worker nodes and returns the report beside the GEMM
// workload's verdict on the distributed result (nil when it matches the
// local blocked reference to 1e-8).
func runMaster(t *testing.T, nodes []cluster.NodeConfig, n, tile int, tr *trace.Trace, mut func(*cluster.Config)) (*cluster.Report, error) {
	t.Helper()
	pl, err := core.NewBuilder("smoke-master").Master("host", core.Arch("x86"), core.Qty(1)).Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := taskrt.New(taskrt.Config{Platform: pl})
	if err != nil {
		t.Fatal(err)
	}
	w := experiments.GEMM(n, tile, experiments.NewGemmMatrices(n, 7))
	if err := w.Submit(rt); err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{
		Nodes:          nodes,
		Trace:          tr,
		HeartbeatEvery: 100 * time.Millisecond,
		Logf:           t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := cluster.NewMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	return rep, w.Verify()
}

// buildBinaries compiles the daemons under test into a temp dir.
func buildBinaries(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	bin := map[string]string{}
	for _, name := range []string{"pdlserved", "pdlworkerd"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Dir = repoRoot(t)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, b)
		}
		bin[name] = out
	}
	return bin
}

// repoRoot walks up from the test's working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// startProc launches a daemon and streams its output through the test log.
func startProc(t *testing.T, path string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(path, args...)
	cmd.Stdout = &testWriter{t, filepath.Base(path)}
	cmd.Stderr = &testWriter{t, filepath.Base(path)}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", path, err)
	}
	return cmd
}

// stopProc terminates a daemon, escalating to SIGKILL if it ignores the
// polite request. Safe on processes that already exited.
func stopProc(cmd *exec.Cmd) {
	if cmd.Process == nil {
		return
	}
	cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}

// waitHealthy polls the registry's /healthz until it answers.
func waitHealthy(t *testing.T, ctl *client.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := ctl.GetJSON(ctx, "/healthz", nil)
		cancel()
		if err == nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("pdlserved did not become healthy at %s", ctl.Base())
}

// waitWorkers polls GET /workers until want leases are registered and turns
// them into master node configs — the discovery path a real deployment uses.
func waitWorkers(t *testing.T, ctl *client.Client, want int) []cluster.NodeConfig {
	t.Helper()
	var list struct {
		Workers []server.WorkerInfo `json:"workers"`
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := ctl.GetJSON(ctx, "/workers", &list)
		cancel()
		if err == nil && len(list.Workers) >= want {
			nodes := make([]cluster.NodeConfig, 0, len(list.Workers))
			for _, w := range list.Workers {
				nodes = append(nodes, cluster.NodeConfig{Name: w.ID, Addr: w.Addr})
			}
			return nodes
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("only %d/%d workers registered in time", len(list.Workers), want)
	return nil
}

// freeAddr reserves an ephemeral loopback port and releases it for the
// daemon to bind (a benign race: the smoke runs alone on the host).
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// testWriter relays subprocess output into the test log, line-buffered
// enough for readability without extra machinery.
type testWriter struct {
	t      *testing.T
	prefix string
}

func (w *testWriter) Write(p []byte) (int, error) {
	w.t.Logf("[%s] %s", w.prefix, p)
	return len(p), nil
}
