package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

// --- payload codec ---

func TestPayloadCodecCompactsViews(t *testing.T) {
	parent := blas.NewMatrix(8, 8)
	parent.FillRandom(1)
	view := parent.Sub(2, 2, 4, 4)

	data, err := EncodePayload(view)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePayload(data)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := got.(*blas.Matrix)
	if !ok {
		t.Fatalf("decoded %T, want *blas.Matrix", got)
	}
	if m.Rows != 4 || m.Cols != 4 || m.Stride != 4 || len(m.Data) != 16 {
		t.Fatalf("view not compacted: %dx%d stride %d len %d", m.Rows, m.Cols, m.Stride, len(m.Data))
	}
	if d := blas.MaxDiff(view, m); d != 0 {
		t.Fatalf("compaction changed values (maxdiff %g)", d)
	}

	// A compact matrix ships as-is.
	compact := blas.NewMatrix(3, 3)
	if data, err = EncodePayload(compact); err != nil {
		t.Fatal(err)
	}
	if got, err = DecodePayload(data); err != nil {
		t.Fatal(err)
	}
	if m = got.(*blas.Matrix); m.Rows != 3 || m.Stride != 3 {
		t.Fatalf("compact matrix mangled: %+v", m)
	}
}

func TestApplyPayloadPreservesAliasing(t *testing.T) {
	parent := blas.NewMatrix(8, 8)
	view := parent.Sub(4, 4, 4, 4)
	src := blas.NewMatrix(4, 4)
	src.FillRandom(7)

	applied, err := ApplyPayload(view, src)
	if err != nil {
		t.Fatal(err)
	}
	if applied != any(view) {
		t.Fatal("apply over a matrix must mutate in place, not replace")
	}
	// The write must be visible through the parent.
	if parent.Data[4*8+4] != src.Data[0] {
		t.Fatal("apply did not write through the view into the parent")
	}
	// Elements outside the view stay zero.
	if parent.Data[0] != 0 {
		t.Fatal("apply leaked outside the view")
	}

	if _, err := ApplyPayload(view, blas.NewMatrix(2, 2)); err == nil {
		t.Fatal("shape mismatch must error")
	}
	if _, err := ApplyPayload(view, []float64{1}); err == nil {
		t.Fatal("type mismatch over a matrix must error")
	}

	// nil destination: replacement.
	if got, _ := ApplyPayload(nil, src); got != any(src) {
		t.Fatal("nil dst must adopt src")
	}
	// Slice copy in place.
	d := []float64{0, 0}
	if got, _ := ApplyPayload(d, []float64{3, 4}); got == nil || d[1] != 4 {
		t.Fatal("float64 slice apply must copy in place")
	}
	raw := []byte{0, 0}
	if got, _ := ApplyPayload(raw, []byte{5, 6}); got == nil || raw[1] != 6 {
		t.Fatal("byte slice apply must copy in place")
	}
	// A kernel cannot resize an operand: a slice of another length or type is
	// an error, as a matrix of another shape is, and the alias the caller
	// verifies through keeps its contents.
	for name, pair := range map[string][2]any{
		"longer float64s":        {d, []float64{1, 2, 3}},
		"shorter float64s":       {d, []float64{}},
		"bytes over float64s":    {d, []byte{1, 2}},
		"longer bytes":           {raw, []byte{1, 2, 3}},
		"matrix over bytes":      {raw, src},
		"gob value over a slice": {d, []int{1, 2}},
		"gob value over matrix":  {view, "s"},
	} {
		if got, err := ApplyPayload(pair[0], pair[1]); err == nil {
			t.Errorf("%s: applied as %T %v, want an error", name, got, got)
		}
	}
	if d[0] != 3 || d[1] != 4 || raw[0] != 5 || raw[1] != 6 {
		t.Errorf("a refused apply changed its destination: %v %v", d, raw)
	}
	// A gob-boxed value replaces one.
	if got, err := ApplyPayload([]int{1}, []int{2, 3}); err != nil || !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("[]int over []int applied as %v, %v; want the new value", got, err)
	}
}

// --- worker protocol ---

func gemmTestCodelet(t testing.TB, delay time.Duration) *taskrt.Codelet {
	t.Helper()
	cl, err := taskrt.NewCodelet("dgemm",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			if delay > 0 {
				time.Sleep(delay)
			}
			a := tc.Payload(0).(*blas.Matrix)
			b := tc.Payload(1).(*blas.Matrix)
			c := tc.Payload(2).(*blas.Matrix)
			return blas.GemmPacked(a, b, c, 0)
		}})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// The worker still takes a frame inside the envelope, and a client that knows
// nothing of the frames behind one can read the answer with a bare gob decoder:
// what the benchmark's wire probe sends and does. Every other double in these
// tests speaks through the package's message reader and writer; this one must
// not, or the arm rots unseen.
func TestWorkerAcceptsInlineOneShot(t *testing.T) {
	_, srv := startWorker(t, "w", gemmTestCodelet(t, 0), WorkerConfig{})
	ops := [3]*blas.Matrix{blas.NewMatrix(4, 4), blas.NewMatrix(4, 4), blas.NewMatrix(4, 4)}
	ops[0].FillRandom(1)
	ops[1].FillRandom(2)
	req := &ExecRequest{TaskID: 9, Codelet: "dgemm"}
	for i, mode := range []taskrt.AccessMode{taskrt.Read, taskrt.Read, taskrt.ReadWrite} {
		frame, err := EncodePayload(ops[i])
		if err != nil {
			t.Fatal(err)
		}
		req.Accesses = append(req.Accesses, AccessSpec{HandleID: i, Mode: int(mode), Inline: frame})
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(req); err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(srv.URL+PathExecute, ContentTypeGob, &body)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var resp ExecResponse
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	want := int64(matrixHeader + 8*16)
	if !resp.OK || !reflect.DeepEqual(resp.Written, []Written{{HandleID: 2, Version: 1, FrameLen: want}}) {
		t.Fatalf("response %+v, want OK and handle 2 written at version 1 in a %d-byte frame", resp, want)
	}
	// What follows the envelope is that frame.
	got, err := DecodePayload(data[int64(len(data))-want:])
	if err != nil {
		t.Fatal(err)
	}
	ref := blas.NewMatrix(4, 4)
	blas.GemmNaive(ops[0], ops[1], ref)
	if d := blas.MaxDiff(ref, got.(*blas.Matrix)); d > 1e-12 {
		t.Fatalf("the frame behind the envelope is not A·B (maxdiff %g)", d)
	}
}

func TestWorkerExecuteCacheAndNeedData(t *testing.T) {
	w, err := NewWorker(WorkerConfig{
		Name: "w1", Archs: []string{"x86"},
		Codelets: []*taskrt.Codelet{gemmTestCodelet(t, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	a, b, c := blas.NewMatrix(4, 4), blas.NewMatrix(4, 4), blas.NewMatrix(4, 4)
	a.FillRandom(1)
	b.FillRandom(2)
	enc := func(m *blas.Matrix) []byte {
		data, err := EncodePayload(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	accesses := func(inline bool, cVer uint64) []AccessSpec {
		specs := []AccessSpec{
			{HandleID: 0, Name: "A", Mode: int(taskrt.Read)},
			{HandleID: 1, Name: "B", Mode: int(taskrt.Read)},
			{HandleID: 2, Name: "C", Mode: int(taskrt.ReadWrite), Version: cVer},
		}
		if inline {
			specs[0].Inline, specs[1].Inline, specs[2].Inline = enc(a), enc(b), enc(c)
		}
		return specs
	}

	// Reference without prior inline: a cache miss, not a fault.
	resp := postExec(t, srv.URL, &ExecRequest{TaskID: 0, Codelet: "dgemm", Accesses: accesses(false, 0)})
	if resp.OK || len(resp.NeedData) != 3 {
		t.Fatalf("cold cache must bounce all refs, got OK=%v NeedData=%v", resp.OK, resp.NeedData)
	}

	// Inline everything: executes, writes come back at version+1.
	resp = postExec(t, srv.URL, &ExecRequest{TaskID: 0, Codelet: "dgemm", Accesses: accesses(true, 0)})
	if !resp.OK {
		t.Fatalf("inline execute failed: %s", resp.Error)
	}
	if len(resp.Written) != 1 || resp.Written[0].HandleID != 2 || resp.Written[0].Version != 1 {
		t.Fatalf("written = %+v, want handle 2 at version 1", resp.Written)
	}

	// Same handles by reference at the cached versions: executes again,
	// accumulating on the worker-cached C (now at version 1).
	resp = postExec(t, srv.URL, &ExecRequest{TaskID: 1, Codelet: "dgemm", Accesses: accesses(false, 1)})
	if !resp.OK {
		t.Fatalf("cached execute failed: %s (NeedData=%v)", resp.Error, resp.NeedData)
	}
	if resp.Written[0].Version != 2 {
		t.Fatalf("second write version = %d, want 2", resp.Written[0].Version)
	}
	got := resp.Written[0].payload
	// Two accumulations of A·B over a zero C.
	ref := blas.NewMatrix(4, 4)
	blas.GemmNaive(a, b, ref)
	blas.GemmNaive(a, b, ref)
	if d := blas.MaxDiff(ref, got.(*blas.Matrix)); d > 1e-12 {
		t.Fatalf("cached accumulation wrong (maxdiff %g)", d)
	}

	// Unknown codelet: in-band error, not NeedData.
	resp = postExec(t, srv.URL, &ExecRequest{TaskID: 2, Codelet: "fft"})
	if resp.OK || resp.Error == "" {
		t.Fatalf("unknown codelet must fail in-band, got %+v", resp)
	}
}

// A worker that serves non-tracing masters (or whose collector died)
// accumulates spans for the GET /v1/trace pull path on every execution; the
// TraceCap bound must hold the buffer at the cap with oldest-drop, export
// the drop count as a monotonic counter, and keep the drain path serving
// the newest spans.
func TestWorkerTraceSpanBufferBounded(t *testing.T) {
	cl, err := taskrt.NewCodelet("nop",
		taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	const cap = 8
	w, err := NewWorker(WorkerConfig{
		Name: "w", Archs: []string{"x86"},
		Codelets: []*taskrt.Codelet{cl},
		TraceCap: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	const execs = 40
	for i := 0; i < execs; i++ {
		if resp := postExec(t, srv.URL, &ExecRequest{TaskID: i, Codelet: "nop"}); !resp.OK {
			t.Fatalf("exec %d failed: %s", i, resp.Error)
		}
	}
	if got := w.Trace().Len(); got > cap {
		t.Fatalf("span buffer holds %d spans past cap %d", got, cap)
	}
	if got := w.Trace().DroppedTotal(); got != execs-cap {
		t.Fatalf("DroppedTotal = %d, want %d", got, execs-cap)
	}

	// The drop counter is federable worker telemetry.
	mres, err := http.Get(srv.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, err := io.ReadAll(mres.Body)
	mres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("taskrt_worker_trace_dropped_spans_total %d", execs-cap)
	if !strings.Contains(string(metricsBody), want) {
		t.Fatalf("metrics lack %q:\n%s", want, metricsBody)
	}

	// Drain still works and serves the newest spans, oldest-dropped.
	tres, err := http.Get(srv.URL + PathTrace + "?drain=1")
	if err != nil {
		t.Fatal(err)
	}
	drained, err := trace.ReadJSONL(tres.Body)
	tres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	events := drained.OfKind(trace.Task)
	if len(events) != cap {
		t.Fatalf("drained %d spans, want %d", len(events), cap)
	}
	for _, e := range events {
		if e.TaskID < execs-cap {
			t.Fatalf("drained span for task %d: an old span survived oldest-drop", e.TaskID)
		}
	}

	// Recording continues after the drain, with no further drops while the
	// buffer stays under the cap.
	for i := 0; i < 3; i++ {
		if resp := postExec(t, srv.URL, &ExecRequest{TaskID: 100 + i, Codelet: "nop"}); !resp.OK {
			t.Fatalf("post-drain exec failed: %s", resp.Error)
		}
	}
	if got := w.Trace().Len(); got != 3 {
		t.Fatalf("post-drain buffer holds %d spans, want 3", got)
	}
	if got := w.Trace().DroppedTotal(); got != execs-cap {
		t.Fatalf("DroppedTotal moved to %d while under the cap", got)
	}
}

func TestWorkerFailedKernelDropsWrittenCache(t *testing.T) {
	// A kernel that mutates its write-mode payload in place and then fails
	// must not leave the corrupted object cache-resident at its pre-write
	// version: the retry would silently consume it as pristine input.
	var fail atomic.Bool
	cl, err := taskrt.NewCodelet("poke",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			c := tc.Payload(0).(*blas.Matrix)
			c.Data[0]++
			if fail.Load() {
				return fmt.Errorf("injected failure after mutation")
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{Name: "w", Archs: []string{"x86"}, Codelets: []*taskrt.Codelet{cl}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	c := blas.NewMatrix(2, 2)
	enc, err := EncodePayload(c)
	if err != nil {
		t.Fatal(err)
	}
	access := func(inline []byte, ver uint64) []AccessSpec {
		return []AccessSpec{{HandleID: 0, Name: "C", Mode: int(taskrt.ReadWrite), Version: ver, Inline: inline}}
	}

	// Seed the cache: inline execute succeeds, C cached at version 1.
	resp := postExec(t, srv.URL, &ExecRequest{TaskID: 0, Codelet: "poke", Accesses: access(enc, 0)})
	if !resp.OK || resp.Written[0].Version != 1 {
		t.Fatalf("seed execute: %+v", resp)
	}

	// Cache-resident execute mutates C then fails in-band.
	fail.Store(true)
	resp = postExec(t, srv.URL, &ExecRequest{TaskID: 1, Codelet: "poke", Accesses: access(nil, 1)})
	if resp.OK || resp.Error == "" {
		t.Fatalf("injected failure not surfaced: %+v", resp)
	}

	// The corrupted entry must be gone: a reference at the pre-write version
	// bounces as NeedData instead of executing on poisoned data.
	fail.Store(false)
	resp = postExec(t, srv.URL, &ExecRequest{TaskID: 1, Codelet: "poke", Accesses: access(nil, 1)})
	if resp.OK || len(resp.NeedData) != 1 || resp.NeedData[0] != 0 {
		t.Fatalf("corrupted cache entry survived the failed kernel: %+v", resp)
	}

	// Re-inlining canonical bytes recovers: one mutation per success.
	canonical := blas.NewMatrix(2, 2)
	canonical.Data[0] = 1
	if enc, err = EncodePayload(canonical); err != nil {
		t.Fatal(err)
	}
	resp = postExec(t, srv.URL, &ExecRequest{TaskID: 1, Codelet: "poke", Accesses: access(enc, 1)})
	if !resp.OK {
		t.Fatalf("retry with canonical inline failed: %s", resp.Error)
	}
	got := resp.Written[0].payload
	if v := got.(*blas.Matrix).Data[0]; v != 2 {
		t.Fatalf("retry result = %g, want 2 (exactly one mutation per successful attempt)", v)
	}
}

// --- end-to-end cluster runs ---

func clusterPlatform(t testing.TB) *core.Platform {
	t.Helper()
	pl, err := core.NewBuilder("cpu").
		Master("host", core.Arch("x86"), core.Qty(2)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// submitTiledGemm builds the C += A·B tile graph (n divisible by tile) and
// returns the operands for verification.
func submitTiledGemm(t testing.TB, rt *taskrt.Runtime, cl *taskrt.Codelet, n, tile int) (a, b, c *blas.Matrix) {
	t.Helper()
	a, b, c = blas.NewMatrix(n, n), blas.NewMatrix(n, n), blas.NewMatrix(n, n)
	a.FillRandom(11)
	b.FillRandom(12)
	nt := n / tile
	handle := func(name string, m *blas.Matrix, i, j int) *taskrt.Handle {
		return rt.NewHandle(fmt.Sprintf("%s[%d,%d]", name, i, j),
			int64(tile)*int64(tile)*8, m.Sub(i*tile, j*tile, tile, tile))
	}
	hA := make([]*taskrt.Handle, nt*nt)
	hB := make([]*taskrt.Handle, nt*nt)
	hC := make([]*taskrt.Handle, nt*nt)
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			hA[i*nt+j] = handle("A", a, i, j)
			hB[i*nt+j] = handle("B", b, i, j)
			hC[i*nt+j] = handle("C", c, i, j)
		}
	}
	var graph []*taskrt.Task
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			for k := 0; k < nt; k++ {
				graph = append(graph, &taskrt.Task{
					Codelet: cl,
					Accesses: []taskrt.Access{
						taskrt.R(hA[i*nt+k]), taskrt.R(hB[k*nt+j]), taskrt.RW(hC[i*nt+j]),
					},
					Flops: blas.FlopsGEMM(tile, tile, tile),
					Label: fmt.Sprintf("C[%d,%d]+=A[%d,%d]*B[%d,%d]", i, j, i, k, k, j),
				})
			}
		}
	}
	if err := rt.SubmitBatch(graph); err != nil {
		t.Fatal(err)
	}
	return a, b, c
}

func verifyGemm(t testing.TB, a, b, c *blas.Matrix) {
	t.Helper()
	ref := blas.NewMatrix(a.Rows, b.Cols)
	if err := blas.GemmBlocked(a, b, ref, 0); err != nil {
		t.Fatal(err)
	}
	if d := blas.MaxDiff(ref, c); d > 1e-8 {
		t.Fatalf("cluster result wrong (maxdiff %g)", d)
	}
}

func startWorker(t testing.TB, name string, cl *taskrt.Codelet, opts WorkerConfig) (*Worker, *httptest.Server) {
	t.Helper()
	opts.Name = name
	opts.Archs = []string{"x86"}
	opts.Codelets = []*taskrt.Codelet{cl}
	w, err := NewWorker(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv
}

func fastMaster(t testing.TB, nodes []NodeConfig, mut func(*Config)) *Master {
	t.Helper()
	cfg := Config{
		Nodes:          nodes,
		HeartbeatEvery: 10 * time.Millisecond,
		// The generous timeout matters under -race: a healthy probe can
		// take tens of milliseconds there, and false timeouts declare live
		// nodes dead. Tripped proxies fail with an immediate 503, so death
		// detection in the failure tests stays at misses×cadence.
		HeartbeatTimeout: 250 * time.Millisecond,
		BackoffBase:      5 * time.Millisecond,
		BackoffCap:       50 * time.Millisecond,
		AllDeadTimeout:   5 * time.Second,
		Logf:             t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := NewMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestClusterGEMMTwoNodes(t *testing.T) {
	// A kernel long enough that the run outlasts the second node's first
	// heartbeat: sixteen chains of instant kernels can finish on one node
	// before the other is known to be up.
	cl := gemmTestCodelet(t, time.Millisecond)
	tr := trace.New()
	_, srv1 := startWorker(t, "w1", cl, WorkerConfig{Slots: 2})
	_, srv2 := startWorker(t, "w2", cl, WorkerConfig{Slots: 2})

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 64, 16)

	m := fastMaster(t, []NodeConfig{
		{Name: "w1", Addr: srv1.URL},
		{Name: "w2", Addr: srv2.URL},
	}, func(cfg *Config) { cfg.Trace = tr })
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)

	// 4×4 C tiles, each the chain of its four k-steps: sixteen invocations
	// carry the 64 tasks, and what the report says follows from that.
	const tasks, chains, perChain, tiles = 64, 16, 4, 48
	if rep.Tasks != tasks {
		t.Fatalf("report tasks = %d, want %d", rep.Tasks, tasks)
	}
	total, needData := 0, 0
	for _, n := range rep.PerNode {
		total += n.Tasks
		needData += n.NeedData
		if n.Dead {
			t.Fatalf("node %s reported dead in a healthy run", n.Name)
		}
		if n.Tasks != perChain*n.Returns {
			t.Errorf("node %s: %d tasks applied with %d written payloads; want one C tile per chain of %d", n.Name, n.Tasks, n.Returns, perChain)
		}
	}
	if total != rep.Tasks {
		t.Fatalf("per-node tasks sum to %d, want %d (exactly-once violated)", total, rep.Tasks)
	}
	// Residency follows stream order, so a healthy run bounces nothing and
	// every dispatch is applied.
	if needData != 0 || rep.Invocations != chains || rep.Returns != chains {
		t.Errorf("%d invocations, %d returns, %d NeedData bounces; want %d, %d and none", rep.Invocations, rep.Returns, needData, chains, chains)
	}
	if want := int64(chains) * (16*16*8 + matrixHeader); rep.ReturnBytes != want {
		t.Errorf("returned %d bytes, want %d: each C tile once, at its final version", rep.ReturnBytes, want)
	}
	// No tile travels to a node twice, whatever was in flight when it was
	// needed again.
	if rep.TransferBytes == 0 || rep.Transfers > 2*tiles {
		t.Errorf("%d transfers (%d bytes); want some, and at most every tile to each node (%d)", rep.Transfers, rep.TransferBytes, 2*tiles)
	}
	// One Place per member: per-task joins on the trace hold.
	placed := map[int]int{}
	for _, e := range tr.OfKind(trace.Place) {
		placed[e.TaskID]++
	}
	for id := 0; id < tasks; id++ {
		if placed[id] != 1 {
			t.Fatalf("task %d has %d Place events, want 1", id, placed[id])
		}
	}
	if !strings.Contains(rep.String(), "invocations=16") || !strings.Contains(rep.String(), "returns=16") {
		t.Errorf("report text lacks the invocation and return counts:\n%s", rep)
	}
}

func TestClusterNeedDataSelfHeals(t *testing.T) {
	cl := gemmTestCodelet(t, 0)
	// A 1-entry cache guarantees evictions between tasks: the master's
	// residency beliefs go stale and every stale reference must bounce back
	// as NeedData and re-inline, never failing the run.
	_, srv := startWorker(t, "tiny", cl, WorkerConfig{Slots: 1, CacheEntries: 1})

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 32, 16)

	m := fastMaster(t, []NodeConfig{{Name: "tiny", Addr: srv.URL}}, nil)
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)
	if rep.PerNode[0].NeedData == 0 {
		t.Fatal("1-entry cache run must have bounced at least one dispatch")
	}
	if rep.FailedAttempts != 0 {
		t.Fatalf("NeedData must not consume attempts, got %d failures", rep.FailedAttempts)
	}
}

// flakyProxy wraps a worker handler with a controllable failure mode, applied
// to the execute stream one request message at a time. Once tripped, control
// endpoints return 503 and new streams are refused; a request message either
// hangs until release (a wedged node), is delayed and then served (a slow node
// whose late results race the resubmitted copies), or ends the stream there —
// the messages before it still answer, it and everything behind it get none.
type flakyProxy struct {
	inner    http.Handler
	mu       sync.Mutex
	executes int
	tripAt   int  // trip when the Nth request message arrives (0: only manual)
	execOnly bool // tripped: fail only executes, keep control endpoints healthy
	tripped  bool
	hang     chan struct{} // non-nil: tripped messages (and stream opens) block here
	delay    time.Duration // tripped messages sleep, then are served for real
}

func (f *flakyProxy) setTripped(v bool) {
	f.mu.Lock()
	f.tripped = v
	f.mu.Unlock()
}

// arrive counts one request message and reports whether the proxy is tripped
// as it arrives.
func (f *flakyProxy) arrive() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.executes++
	// One-shot: re-arming would immediately re-trip a recovered node.
	if f.tripAt > 0 && f.executes >= f.tripAt {
		f.tripped = true
		f.tripAt = 0
	}
	return f.tripped
}

func (f *flakyProxy) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	isExec := r.Method == http.MethodPost && r.URL.Path == PathExecute
	f.mu.Lock()
	tripped := f.tripped
	f.mu.Unlock()
	switch {
	case isExec && (!tripped || f.delay > 0):
		// The worker reads its requests from the relay, which sees them first.
		pr, pw := io.Pipe()
		go f.relay(r.Body, pw)
		inner := r.Clone(r.Context())
		inner.Body = pr
		f.inner.ServeHTTP(rw, inner)
	case !tripped || (f.execOnly && !isExec):
		f.inner.ServeHTTP(rw, r)
	default:
		if isExec && f.hang != nil {
			<-f.hang
		}
		http.Error(rw, `{"error":"node down"}`, http.StatusServiceUnavailable)
	}
}

// relay forwards the stream's request messages to the worker until one of them
// ends it.
func (f *flakyProxy) relay(from io.Reader, to *io.PipeWriter) {
	var (
		in      = newMessageReader(from, 1<<30)
		out     = newMessageWriter(to)
		outMu   sync.Mutex
		delayed sync.WaitGroup
	)
	forward := func(req *ExecRequest) {
		outMu.Lock()
		defer outMu.Unlock()
		out.write(req, resend(req)) // fails only once the worker stopped reading
	}
	for {
		req, err := nextRequest(in)
		if err != nil {
			break
		}
		if !f.arrive() {
			forward(req)
			continue
		}
		if f.delay > 0 {
			delayed.Add(1)
			go func() {
				defer delayed.Done()
				time.Sleep(f.delay)
				forward(req)
			}()
			continue
		}
		if f.hang != nil {
			<-f.hang
		}
		break
	}
	delayed.Wait()
	to.Close()
}

func TestClusterWorkerDeathResubmits(t *testing.T) {
	cl := gemmTestCodelet(t, time.Millisecond)
	_, srv1 := startWorker(t, "ok", cl, WorkerConfig{Slots: 2})

	w2, err := NewWorker(WorkerConfig{
		Name: "doomed", Archs: []string{"x86"}, Slots: 2,
		Codelets: []*taskrt.Codelet{cl},
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	proxy := &flakyProxy{inner: w2.Handler(), tripAt: 3, hang: release}
	srv2 := httptest.NewServer(proxy)
	t.Cleanup(func() { close(release); srv2.Close() })

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 64, 16)

	m := fastMaster(t, []NodeConfig{
		{Name: "ok", Addr: srv1.URL},
		{Name: "doomed", Addr: srv2.URL},
	}, nil)
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)

	if len(rep.DeadNodes) != 1 || rep.DeadNodes[0] != "doomed" {
		t.Fatalf("dead nodes = %v, want [doomed]", rep.DeadNodes)
	}
	// The proxy let two requests through before it wedged: the doomed node
	// answered at most those two chains, whole, and every task of every chain
	// it still held was resubmitted and ran on the survivor.
	const perChain = 4
	if rep.Resubmissions == 0 || rep.Resubmissions%perChain != 0 {
		t.Fatalf("resubmissions = %d, want the member tasks of at least one wedged chain", rep.Resubmissions)
	}
	var okTasks, doomedTasks int
	for _, n := range rep.PerNode {
		switch n.Name {
		case "ok":
			okTasks = n.Tasks
		case "doomed":
			doomedTasks = n.Tasks
			if n.Resubmits != rep.Resubmissions {
				t.Errorf("doomed node resubmits = %d, report total %d", n.Resubmits, rep.Resubmissions)
			}
		}
	}
	if okTasks+doomedTasks != rep.Tasks {
		t.Fatalf("task split %d+%d != %d", okTasks, doomedTasks, rep.Tasks)
	}
	if doomedTasks%perChain != 0 || doomedTasks > 2*perChain {
		t.Fatalf("doomed node applied %d tasks, want whole chains and at most the two answered before the wedge", doomedTasks)
	}
}

func TestClusterLateResultsExactlyOnce(t *testing.T) {
	cl := gemmTestCodelet(t, time.Millisecond)
	_, srv1 := startWorker(t, "ok", cl, WorkerConfig{Slots: 2})

	w2, err := NewWorker(WorkerConfig{
		Name: "slow", Archs: []string{"x86"}, Slots: 2,
		Codelets: []*taskrt.Codelet{cl},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Once tripped, "slow" stops heartbeating (503) but still finishes its
	// execute requests after a delay long past death detection, so its late
	// successes race the resubmitted copies: first-writer-wins must keep
	// each accumulation applied exactly once, or verification fails.
	proxy := &flakyProxy{inner: w2.Handler(), tripAt: 3, delay: 120 * time.Millisecond}
	srv2 := httptest.NewServer(proxy)
	t.Cleanup(srv2.Close)

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 64, 16)

	m := fastMaster(t, []NodeConfig{
		{Name: "ok", Addr: srv1.URL},
		{Name: "slow", Addr: srv2.URL},
	}, nil)
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)
	total := 0
	for _, n := range rep.PerNode {
		total += n.Tasks
	}
	if total != rep.Tasks {
		t.Fatalf("per-node tasks sum to %d, want %d", total, rep.Tasks)
	}
}

func TestClusterNodeRejoinIsCleared(t *testing.T) {
	cl := gemmTestCodelet(t, 3*time.Millisecond)
	_, srv1 := startWorker(t, "steady", cl, WorkerConfig{Slots: 1})

	w2, err := NewWorker(WorkerConfig{
		Name: "bouncy", Archs: []string{"x86"}, Slots: 1,
		Codelets: []*taskrt.Codelet{cl},
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy := &flakyProxy{inner: w2.Handler(), tripAt: 3}
	srv2 := httptest.NewServer(proxy)
	t.Cleanup(srv2.Close)
	// The node recovers mid-run: the master must clear its node-granularity
	// blacklist (and its residency beliefs) and hand it work again.
	recover := time.AfterFunc(60*time.Millisecond, func() { proxy.setTripped(false) })
	defer recover.Stop()

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 64, 16)

	m := fastMaster(t, []NodeConfig{
		{Name: "steady", Addr: srv1.URL},
		{Name: "bouncy", Addr: srv2.URL},
	}, nil)
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)

	var bouncy NodeStats
	for _, n := range rep.PerNode {
		if n.Name == "bouncy" {
			bouncy = n
		}
	}
	if bouncy.Dead {
		t.Fatal("recovered node still blacklisted at end of run")
	}
	if bouncy.Tasks <= 8 {
		t.Fatalf("recovered node ran %d tasks, want more than the two chains it answered before it died", bouncy.Tasks)
	}
}

func TestClusterRetryAfterMutatingFailure(t *testing.T) {
	// A kernel accumulates into a cache-resident C tile, then fails. The
	// retry must see canonical data (re-inlined by the master), not the
	// half-written resident copy: a double accumulation would corrupt the
	// numerical result without any error surfacing.
	var injected atomic.Bool
	cl, err := taskrt.NewCodelet("dgemm",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			a := tc.Payload(0).(*blas.Matrix)
			b := tc.Payload(1).(*blas.Matrix)
			c := tc.Payload(2).(*blas.Matrix)
			// Dirty C means a prior task of the chain accumulated into it,
			// so on a single node it is cache-resident — the case where a
			// post-mutation failure could poison the cache.
			dirty := false
			for _, v := range c.Data {
				if v != 0 {
					dirty = true
					break
				}
			}
			if err := blas.GemmPacked(a, b, c, 0); err != nil {
				return err
			}
			if dirty && injected.CompareAndSwap(false, true) {
				return fmt.Errorf("injected failure after mutating C")
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startWorker(t, "solo", cl, WorkerConfig{Slots: 2})

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 32, 16)

	m := fastMaster(t, []NodeConfig{{Name: "solo", Addr: srv.URL}}, nil)
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	if !injected.Load() {
		t.Fatal("failure injection never fired; test exercised nothing")
	}
	if rep.FailedAttempts != 1 || rep.RetriedTasks != 1 {
		t.Fatalf("failures=%d retried=%d, want 1/1", rep.FailedAttempts, rep.RetriedTasks)
	}
	verifyGemm(t, a, b, c)
}

func TestClusterSuspectDeclaredNodeRejoins(t *testing.T) {
	// Transport errors on the data plane take a node down while its control
	// plane keeps answering. The next answered probe must bring it back, or a
	// single-node cluster aborts despite its node being healthy.
	cl := gemmTestCodelet(t, time.Millisecond)
	w, err := NewWorker(WorkerConfig{
		Name: "shaky", Archs: []string{"x86"}, Slots: 1,
		Codelets: []*taskrt.Codelet{cl},
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy := &flakyProxy{inner: w.Handler(), tripAt: 1, execOnly: true}
	srv := httptest.NewServer(proxy)
	t.Cleanup(srv.Close)
	untrip := time.AfterFunc(60*time.Millisecond, func() { proxy.setTripped(false) })
	defer untrip.Stop()

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 32, 16)

	m := fastMaster(t, []NodeConfig{{Name: "shaky", Addr: srv.URL}}, func(cfg *Config) {
		cfg.AllDeadTimeout = 2 * time.Second
	})
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatalf("suspect-declared node never rejoined: %v", err)
	}
	verifyGemm(t, a, b, c)
	if rep.PerNode[0].Dead {
		t.Fatal("healthy node still blacklisted at end of run")
	}
}

func TestHandleResultInBandOutcomesClearSuspects(t *testing.T) {
	// Any completed execute round-trip proves transport is healthy: both
	// the NeedData bounce and the in-band failure must reset the node's
	// consecutive-transport-suspect counter, and the in-band failure must
	// also drop residency for the handles the failed kernel may have
	// mutated (the worker dropped its cache entries for them).
	m, err := NewMaster(Config{Nodes: []NodeConfig{{Name: "n", Addr: "http://unused"}}})
	if err != nil {
		t.Fatal(err)
	}
	noop, err := taskrt.NewCodelet("noop",
		taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle("C", 32, blas.NewMatrix(2, 2))
	if err := rt.SubmitBatch([]*taskrt.Task{{Codelet: noop, Accesses: []taskrt.Access{taskrt.RW(h)}}}); err != nil {
		t.Fatal(err)
	}
	st, err := m.newRun(rt.Graph())
	if err != nil {
		t.Fatal(err)
	}
	defer close(st.stop)
	n, task := st.nodes[0], st.graph.Tasks()[0]
	n.alive = true
	// NeedData bounce: suspects reset, stale residency dropped.
	n.suspects, n.has[h.ID()] = 1, cached{0, true}
	rec := &inflightRec{members: []member{{task: task}}, node: n}
	st.task[task.ID()].inflight = rec
	if done, err := st.handleResult(event{kind: evResult, rec: rec,
		resp: &ExecResponse{TaskID: task.ID(), NeedData: []int{h.ID()}}}); done != 0 || err != nil {
		t.Fatalf("NeedData handling: done=%v err=%v", done, err)
	}
	if n.suspects != 0 {
		t.Fatalf("NeedData round-trip left suspects=%d, want 0", n.suspects)
	}
	if n.has[h.ID()].ok {
		t.Fatal("NeedData must drop the stale residency belief")
	}

	// In-band failure: suspects reset, written-handle residency dropped.
	st.ready = nil
	n.suspects, n.has[h.ID()] = 1, cached{1, true}
	rec = &inflightRec{members: []member{{task: task}}, node: n}
	st.task[task.ID()].inflight = rec
	if done, err := st.handleResult(event{kind: evResult, rec: rec,
		resp: &ExecResponse{TaskID: task.ID(), Error: "kernel exploded"}}); done != 0 || err != nil {
		t.Fatalf("in-band failure handling: done=%v err=%v", done, err)
	}
	if n.suspects != 0 {
		t.Fatalf("in-band failure left suspects=%d, want 0", n.suspects)
	}
	if n.has[h.ID()].ok {
		t.Fatal("in-band failure must drop residency of written handles (worker dropped its copy)")
	}
}

func TestMasterValidation(t *testing.T) {
	if _, err := NewMaster(Config{}); err == nil {
		t.Fatal("no nodes must fail")
	}
	if _, err := NewMaster(Config{Nodes: []NodeConfig{{Name: "a"}}}); err == nil {
		t.Fatal("missing addr must fail")
	}
	if _, err := NewMaster(Config{Nodes: []NodeConfig{
		{Name: "a", Addr: "http://x"}, {Name: "a", Addr: "http://y"},
	}}); err == nil {
		t.Fatal("duplicate node name must fail")
	}
}

func TestMasterNoRunnableCodelet(t *testing.T) {
	// A worker that advertises no runnable codelet for the submitted work:
	// the master must fail fast instead of hanging.
	other, err := taskrt.NewCodelet("other",
		taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startWorker(t, "w", other, WorkerConfig{})

	cl := gemmTestCodelet(t, 0)
	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	submitTiledGemm(t, rt, cl, 16, 16)

	m := fastMaster(t, []NodeConfig{{Name: "w", Addr: srv.URL}}, nil)
	if _, err := m.Run(rt); err == nil {
		t.Fatal("unrunnable codelet must error, not hang")
	}
}

// TestClusterMergedTraceSpans verifies the distributed trace propagation
// path end to end in-process: worker-side kernel spans ride back on execute
// responses, the master stitches them (with the master's own placement
// instants) into one epoch-aligned timeline, and every span keeps its
// causal identity.
func TestClusterMergedTraceSpans(t *testing.T) {
	// (A kernel long enough for both nodes to be up, as in TwoNodes.)
	cl := gemmTestCodelet(t, time.Millisecond)
	tr := trace.New()
	_, srv1 := startWorker(t, "w1", cl, WorkerConfig{Slots: 2})
	_, srv2 := startWorker(t, "w2", cl, WorkerConfig{Slots: 2})

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 64, 16)

	m := fastMaster(t, []NodeConfig{
		{Name: "w1", Addr: srv1.URL},
		{Name: "w2", Addr: srv2.URL},
	}, func(cfg *Config) { cfg.Trace = tr })
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)

	if rep.Trace == nil {
		t.Fatal("report carries no merged trace")
	}
	spans := map[string]int{}
	taskIDs := map[int]bool{}
	for _, e := range rep.Trace.Events() {
		if e.Kind != trace.Task || e.Worker == 0 && e.Node == "" {
			continue
		}
		if e.Node != "w1" && e.Node != "w2" {
			t.Fatalf("kernel span with unexpected node %q", e.Node)
		}
		if e.Label == "" {
			t.Fatalf("kernel span lost causal identity: %+v", e)
		}
		if e.End < e.Start {
			t.Fatalf("kernel span with negative duration: %+v", e)
		}
		spans[e.Node]++
		taskIDs[e.TaskID] = true
	}
	for _, node := range []string{"w1", "w2"} {
		if spans[node] == 0 {
			t.Fatalf("merged trace has no kernel spans from %s (got %v)", node, spans)
		}
	}
	if spans["w1"]+spans["w2"] < rep.Tasks {
		t.Fatalf("merged trace has %d kernel spans for %d tasks", spans["w1"]+spans["w2"], rep.Tasks)
	}
	if len(taskIDs) != rep.Tasks {
		t.Fatalf("kernel spans cover %d distinct task ids, want %d", len(taskIDs), rep.Tasks)
	}
	if len(tr.OfKind(trace.Place)) == 0 {
		t.Fatal("master placement instants missing from the run trace")
	}
	// The merged trace is also published for /debug/trace.
	if trace.Published() == nil {
		t.Fatal("run finished without publishing the merged trace")
	}
}

// Delay is the worker's one slowdown setting: slept before every kernel, inside
// the time the kernel is reported to have taken.
func TestWorkerDelay(t *testing.T) {
	nop, err := taskrt.NewCodelet("nop", taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	cfg := WorkerConfig{Name: "w", Archs: []string{"x86"}, Codelets: []*taskrt.Codelet{nop}, Delay: -time.Millisecond}
	if _, err := NewWorker(cfg); err == nil {
		t.Fatal("NewWorker accepted a negative Delay")
	}
	cfg.Delay = 20 * time.Millisecond
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp := w.execute(w.admit(&ExecRequest{Codelet: "nop"}))
	if !resp.OK || len(resp.Ran) != 1 || resp.Ran[0].Seconds < cfg.Delay.Seconds() {
		t.Fatalf("a nop kernel under a %s Delay: %+v, want it to report at least the delay", cfg.Delay, resp)
	}
	var scrape strings.Builder
	w.Metrics().WritePrometheus(&scrape)
	if want := "taskrt_worker_injected_delay_seconds_total 0.02\n"; !strings.Contains(scrape.String(), want) {
		t.Fatalf("scrape lacks %q:\n%s", want, scrape.String())
	}
}

// TestStragglerDetection injects a gray failure — one node that stays
// correct but runs every kernel ~40x slower than the perfmodel estimate —
// and asserts the master's detector, at its own thresholds, flags it:
// straggler counters in the report, a Straggler trace instant naming the
// node, and placement back-pressure that drains work toward the healthy node.
func TestStragglerDetection(t *testing.T) {
	// The fast node's kernel is long enough that host noise (tens of
	// milliseconds under -race on a loaded host) cannot push it past
	// stragglerMultiple × its estimate; the slow node stays 40× slower.
	const kernel = 10 * time.Millisecond
	cl := gemmTestCodelet(t, kernel)
	tr := trace.New()
	_, fastSrv := startWorker(t, "strag-fast", cl, WorkerConfig{Slots: 2})
	_, slowSrv := startWorker(t, "strag-slow", cl, WorkerConfig{Slots: 2, Delay: 40 * kernel})

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 64, 16)

	// Seed the model the placement will use, so the very first executions
	// compare against a realistic estimate instead of running cold.
	models := perfmodel.NewStore()
	if err := models.Model("dgemm", "x86").Record(blas.FlopsGEMM(16, 16, 16), 1.2*kernel.Seconds()); err != nil {
		t.Fatal(err)
	}

	m := fastMaster(t, []NodeConfig{
		{Name: "strag-fast", Addr: fastSrv.URL},
		{Name: "strag-slow", Addr: slowSrv.URL},
	}, func(cfg *Config) {
		cfg.Trace = tr
		cfg.Models = models
	})
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c) // slow, not wrong: results must stay correct

	if rep.Stragglers == 0 {
		t.Fatal("no stragglers flagged despite a 400ms injected delay vs a ~12ms estimate")
	}
	var fast, slow NodeStats
	for _, n := range rep.PerNode {
		switch n.Name {
		case "strag-fast":
			fast = n
		case "strag-slow":
			slow = n
		}
	}
	if slow.Stragglers == 0 {
		t.Fatalf("slow node not flagged: %+v", rep.PerNode)
	}
	if slow.Slowdown <= 1 {
		t.Fatalf("slow node slowdown score = %.2f, want > 1", slow.Slowdown)
	}
	if fast.Tasks <= slow.Tasks {
		t.Fatalf("placement did not drain toward the healthy node: fast=%d slow=%d tasks",
			fast.Tasks, slow.Tasks)
	}
	events := tr.OfKind(trace.Straggler)
	if len(events) == 0 {
		t.Fatal("no Straggler trace instants recorded")
	}
	for _, e := range events {
		if e.Node != "strag-slow" {
			t.Fatalf("straggler instant flagged node %q, want strag-slow", e.Node)
		}
		if e.From == "" {
			t.Fatal("straggler instant carries no reason")
		}
	}
}
