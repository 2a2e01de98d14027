package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/metrics"
	"repro/internal/taskrt"
)

// --- the worker's end ---

// clientStream is a test's hand-held execute stream to a worker: requests go
// up as the test sends them, responses come back on a channel that closes
// when the worker ends the response.
type clientStream struct {
	out       *messageWriter
	body      *io.PipeWriter
	responses chan *ExecResponse
	status    chan int
}

func openClientStream(t *testing.T, url string) *clientStream {
	t.Helper()
	pr, pw := io.Pipe()
	cs := &clientStream{out: newMessageWriter(pw), body: pw, responses: make(chan *ExecResponse), status: make(chan int, 1)}
	go func() {
		defer close(cs.responses)
		defer close(cs.status)
		resp, err := http.Post(url+PathExecute, ContentTypeGob, pr)
		if err != nil {
			t.Errorf("execute stream: %v", err)
			return
		}
		defer resp.Body.Close()
		cs.status <- resp.StatusCode
		for in := newMessageReader(resp.Body, 1<<30); ; {
			r, err := readResponse(in)
			if err != nil {
				return
			}
			cs.responses <- r
		}
	}()
	t.Cleanup(func() { pw.Close() })
	return cs
}

func (cs *clientStream) send(t *testing.T, req *ExecRequest) {
	t.Helper()
	if err := cs.out.write(req, trailing(req)); err != nil {
		t.Fatalf("writing request %d: %v", req.TaskID, err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// A stream never goes idle, so http.Server.Shutdown alone would sit out its
// grace period on every SIGTERM. Drain stops the stream reading, lets what it
// had accepted answer, and ends the response — after which Shutdown is
// immediate.
func TestWorkerDrainAnswersInFlight(t *testing.T) {
	const k = 3
	gate := make(chan struct{})
	cl, err := taskrt.NewCodelet("wait",
		taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { <-gate; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	w, srv := startWorker(t, "draining", cl, WorkerConfig{Slots: k})
	cs := openClientStream(t, srv.URL)
	for i := 0; i < k; i++ {
		cs.send(t, &ExecRequest{TaskID: i, Codelet: "wait"})
	}
	waitFor(t, "every invocation to hold a slot", func() bool { return w.inflight.Load() == k })

	var health struct {
		OpenStreams int `json:"open_streams"`
	}
	res, err := http.Get(srv.URL + PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(res.Body).Decode(&health)
	res.Body.Close()
	if err != nil || health.OpenStreams != 1 {
		t.Fatalf("healthz open_streams = %d (err %v), want 1", health.OpenStreams, err)
	}

	drained := make(chan time.Time, 1)
	go func() { w.Drain(); drained <- time.Now() }()
	// Draining refuses new streams (and must be in force before the kernels
	// are let go, or the stream could end on its own).
	waitFor(t, "the worker to refuse new streams", func() bool {
		res, err := http.Post(srv.URL+PathExecute, ContentTypeGob, strings.NewReader(""))
		if err != nil {
			return false
		}
		res.Body.Close()
		return res.StatusCode == http.StatusServiceUnavailable
	})
	select {
	case <-drained:
		t.Fatal("Drain returned with kernels still running")
	default:
	}

	close(gate)
	released := time.Now()
	got := map[int]bool{}
	for r := range cs.responses {
		if !r.OK {
			t.Fatalf("task %d answered %q", r.TaskID, r.Error)
		}
		got[r.TaskID] = true
	}
	if len(got) != k {
		t.Fatalf("%d of %d in-flight invocations answered before the stream ended: %v", len(got), k, got)
	}
	if code := <-cs.status; code != http.StatusOK {
		t.Fatalf("stream status %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Config.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after Drain: %v", err)
	}
	if d := (<-drained).Sub(released); d > time.Second {
		t.Fatalf("Drain returned %s after the last kernel", d)
	}
}

// MaxBodyBytes bounds each request message, not the stream: many messages
// under it pass however much they add up to, one over it ends the stream
// unanswered — whether the bytes over the bound sit inside the envelope, behind
// it, or are only announced: a frame's announced length is held against what
// is left of the message's budget before anything is allocated or read for it.
func TestWorkerMaxBodyBytesBoundsEachMessage(t *testing.T) {
	cl, err := taskrt.NewCodelet("nop",
		taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 64 << 10
	request := func(id, payloadBytes int) *ExecRequest {
		frame, err := EncodePayload(make([]byte, payloadBytes))
		if err != nil {
			t.Fatal(err)
		}
		return &ExecRequest{TaskID: id, Codelet: "nop",
			Accesses: []AccessSpec{{HandleID: id, Mode: int(taskrt.Read), Inline: frame}}}
	}
	for form, send := range map[string]func(*clientStream, *ExecRequest){
		"frame behind the envelope": func(cs *clientStream, req *ExecRequest) { cs.send(t, req) },
		"frame inside the envelope": func(cs *clientStream, req *ExecRequest) {
			if err := cs.out.write(req, nil); err != nil {
				t.Fatalf("writing request %d: %v", req.TaskID, err)
			}
		},
		"frame announced, never sent": func(cs *clientStream, req *ExecRequest) {
			if a := &req.Accesses[0]; len(a.Inline) > bound {
				a.FrameLen, a.Inline = int64(len(a.Inline)), nil // were the worker to wait for it, no answer and no end
				if err := cs.out.write(req, nil); err != nil {
					t.Fatalf("writing request %d: %v", req.TaskID, err)
				}
				return
			}
			cs.send(t, req)
		},
	} {
		t.Run(form, func(t *testing.T) {
			_, srv := startWorker(t, "bounded", cl, WorkerConfig{MaxBodyBytes: bound})
			cs := openClientStream(t, srv.URL)
			const under = 5 // 5 × 40 KiB is three times the bound
			for i := 0; i < under; i++ {
				send(cs, request(i, 40<<10))
				if r := <-cs.responses; r == nil || !r.OK || r.TaskID != i {
					t.Fatalf("message %d under the bound: %+v", i, r)
				}
			}
			send(cs, request(under, 2*bound))
			if r, open := <-cs.responses; open {
				t.Fatalf("a %d-byte message got an answer past a %d-byte bound: %+v", 2*bound, bound, r)
			}
		})
	}
}

// --- the master's end ---

// liveRun is a runState whose single node is a real worker behind srv, with k
// independent tasks of cl, each read-writing its own 1×1 matrix; the node is
// up and holds k credits.
func liveRun(t *testing.T, name string, w *Worker, srv *httptest.Server, cl *taskrt.Codelet, k int, mut func(*Config)) (*runState, []*blas.Matrix) {
	t.Helper()
	cfg := Config{Nodes: []NodeConfig{{Name: name, Addr: srv.URL}}, MaxInflight: k,
		BackoffBase: time.Millisecond, BackoffCap: time.Millisecond, Logf: t.Logf}
	if mut != nil {
		mut(&cfg)
	}
	cells := make([]*blas.Matrix, k)
	st := newRunState(t, cfg, func(rt *taskrt.Runtime) []*taskrt.Task {
		batch := make([]*taskrt.Task, k)
		for i := range batch {
			cells[i] = blas.NewMatrix(1, 1)
			h := rt.NewHandle(fmt.Sprintf("cell%d", i), 8, cells[i])
			batch[i] = &taskrt.Task{Codelet: cl, Accesses: []taskrt.Access{taskrt.RW(h)}, Label: fmt.Sprint(i)}
		}
		return batch
	})
	st.nodeUp(st.nodes[0], w.Info())
	return st, cells
}

func dispatchAll(t *testing.T, st *runState, tasks []*taskrt.Task) {
	t.Helper()
	for _, task := range tasks {
		placeHead(t, st, task)
	}
}

// awaitResult plays the loop until the next invocation outcome or for d:
// requeues go back to ready, and nothing else is expected.
func awaitResult(t testing.TB, st *runState, d time.Duration) (event, bool) {
	t.Helper()
	timeout := time.After(d)
	for {
		select {
		case ev := <-st.events:
			switch ev.kind {
			case evResult:
				return ev, true
			case evRequeue:
				st.ready = append(st.ready, ev.task)
			default:
				t.Fatalf("unexpected event kind %d", ev.kind)
			}
		case <-timeout:
			return event{}, false
		}
	}
}

func nextResult(t testing.TB, st *runState) event {
	t.Helper()
	ev, ok := awaitResult(t, st, 5*time.Second)
	if !ok {
		t.Fatal("timed out waiting for an invocation outcome")
	}
	return ev
}

func currentStream(n *nodeState) *execStream {
	n.streamMu.Lock()
	defer n.streamMu.Unlock()
	return n.stream
}

// A stream cut with k invocations on it fails each of them exactly once with
// a transport error; what dispatch charged comes back in full; and when the
// node rejoins, the work reruns on a fresh stream and applies exactly once.
func TestStreamBreakFailsEveryPendingOnce(t *testing.T) {
	const k, node = 4, "cut-node"
	gate := make(chan struct{})
	cl, err := taskrt.NewCodelet("bump",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			<-gate
			tc.Payload(0).(*blas.Matrix).Data[0]++
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	w, srv := startWorker(t, node, cl, WorkerConfig{Slots: k})
	st, cells := liveRun(t, node, w, srv, cl, k, nil)
	n := st.nodes[0]
	// The families live in the process-wide registry: count from here.
	reconnects0, rtts0 := cm.reconnects.With(node).Value(), cm.execRTT.With(node).Count()

	dispatchAll(t, st, st.graph.Tasks())
	waitFor(t, "every invocation to reach a kernel", func() bool { return w.inflight.Load() == k })
	first := currentStream(n)
	srv.CloseClientConnections()

	failed := map[*inflightRec]bool{}
	for i := 0; i < k; i++ {
		ev := nextResult(t, st)
		if ev.err == nil || ev.resp != nil {
			t.Fatalf("outcome %d after the cut: resp=%v err=%v, want a transport error", i, ev.resp, ev.err)
		}
		if failed[ev.rec] {
			t.Fatalf("task %d failed twice", ev.rec.head().ID())
		}
		failed[ev.rec] = true
		if done, err := st.handleResult(ev); done != 0 || err != nil {
			t.Fatalf("handling transport error %d: done=%v err=%v", i, done, err)
		}
	}
	// Σ node backlog == Σ Charge() of in-flight records, and nothing is in
	// flight.
	if st.flying != 0 || n.backlog != 0 {
		t.Fatalf("after the break: %d in flight, backlog %d ns; want 0 and 0", st.flying, n.backlog)
	}
	if n.alive {
		t.Fatal("k consecutive transport errors left the node up")
	}

	close(gate) // the orphaned kernels finish; their answers have nowhere to go
	st.nodeUp(n, w.Info())
	if n.credits != k {
		t.Fatalf("rejoined node holds %d credits, want %d", n.credits, k)
	}
	for done, deadline := 0, time.Now().Add(5*time.Second); done < k; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d tasks reran on the rejoined node", done, k)
		}
		st.dispatchReady() // requeues come back on their own backoff timers
		ev, ok := awaitResult(t, st, 10*time.Millisecond)
		if !ok {
			continue
		}
		completed, err := st.handleResult(ev)
		if err != nil {
			t.Fatal(err)
		}
		done += completed
	}
	for i, c := range cells {
		if c.Data[0] != 1 {
			t.Errorf("cell %d = %g after the rerun, want exactly one application", i, c.Data[0])
		}
	}
	if s := currentStream(n); s == nil || s == first {
		t.Fatal("the rejoined node is not on a fresh stream")
	}
	if got := cm.reconnects.With(node).Value() - reconnects0; got != 1 {
		t.Errorf("stream_reconnects_total{%s} rose by %g, want 1", node, got)
	}
	// An answer that beats its request's write timestamp goes unobserved, so
	// the count may fall short of k; the k cut short must not be in it.
	if got := cm.execRTT.With(node).Count() - rtts0; got < 1 || got > k {
		t.Errorf("exec_rtt_seconds{%s} observed %d invocations, want the (at most %d) answered ones", node, got, k)
	}
	var text strings.Builder
	metrics.Default.WritePrometheus(&text)
	for _, series := range []string{
		`taskrt_cluster_exec_rtt_seconds_count{node="` + node + `"}`,
		`taskrt_cluster_stream_reconnects_total{node="` + node + `"}`,
	} {
		if !strings.Contains(text.String(), series) {
			t.Errorf("metrics exposition lacks %s", series)
		}
	}
}

// ExecTimeout is a timer per invocation: a hung kernel times out alone, its
// neighbours on the same stream complete, the stream stays in use — and the
// hung kernel's answer, when it finally comes, is dropped rather than matched
// to the retry that now owns the task.
func TestExecTimeoutIsPerRecord(t *testing.T) {
	const k, node = 3, "hang-node"
	gates := []chan struct{}{make(chan struct{}), make(chan struct{})}
	var hangs atomic.Int32
	cl, err := taskrt.NewCodelet("maybe-hang",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			if tc.Task.Label == "0" {
				<-gates[hangs.Add(1)-1]
			}
			tc.Payload(0).(*blas.Matrix).Data[0]++
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	w, srv := startWorker(t, node, cl, WorkerConfig{Slots: k + 1})
	st, cells := liveRun(t, node, w, srv, cl, k, func(cfg *Config) { cfg.ExecTimeout = 150 * time.Millisecond })
	n := st.nodes[0]
	hung := st.graph.Tasks()[0]

	dispatchAll(t, st, st.graph.Tasks())
	begin := time.Now()
	for i := 0; i < k-1; i++ {
		ev := nextResult(t, st)
		if ev.err != nil || ev.rec.head() == hung {
			t.Fatalf("neighbour %d of the hung kernel: task %d err %v", i, ev.rec.head().ID(), ev.err)
		}
		if done, err := st.handleResult(ev); done != 1 || err != nil {
			t.Fatalf("neighbour %d: done=%v err=%v", i, done, err)
		}
	}
	if d := time.Since(begin); d >= st.m.cfg.ExecTimeout {
		t.Fatalf("the neighbours took %s: they waited for the hung kernel's timeout", d)
	}
	ev := nextResult(t, st)
	if ev.rec.head() != hung || ev.err == nil {
		t.Fatalf("third outcome: task %d err %v, want the hung task timing out", ev.rec.head().ID(), ev.err)
	}
	if done, err := st.handleResult(ev); done != 0 || err != nil {
		t.Fatalf("handling the timeout: done=%v err=%v", done, err)
	}
	stream := currentStream(n)
	if stream == nil || n.suspects != 1 || !n.alive {
		t.Fatalf("one timeout: stream %v, suspects %d, alive %v; want the stream kept and one suspect", stream, n.suspects, n.alive)
	}

	// The retry is a later attempt of the same task on the same stream. The
	// hung kernel holds the cell checked out of the worker's cache, so the
	// retry by reference bounces once and travels again with the master's
	// bytes; then it hangs too, and the first attempt's answer arrives while
	// it is pending.
	st.task[hung.ID()].attempts = 1
	dispatchAll(t, st, []*taskrt.Task{hung})
	ev = nextResult(t, st)
	if ev.err != nil || len(ev.resp.NeedData) != 1 {
		t.Fatalf("retry by reference while the hung kernel holds the cell: resp=%+v err=%v, want NeedData", ev.resp, ev.err)
	}
	if done, err := st.handleResult(ev); done != 0 || err != nil {
		t.Fatalf("handling the bounce: done=%v err=%v", done, err)
	}
	dispatchAll(t, st, []*taskrt.Task{hung})
	waitFor(t, "the retry to reach its kernel", func() bool { return hangs.Load() == 2 })
	close(gates[0])
	if ev, ok := awaitResult(t, st, 50*time.Millisecond); ok {
		t.Fatalf("attempt 0's late answer was matched to the retry: resp=%+v err=%v", ev.resp, ev.err)
	}
	close(gates[1])
	ev = nextResult(t, st)
	if ev.err != nil || ev.resp.Attempt != 1 {
		t.Fatalf("retry outcome: resp=%+v err=%v, want attempt 1's answer", ev.resp, ev.err)
	}
	if done, err := st.handleResult(ev); done != 1 || err != nil {
		t.Fatalf("retry: done=%v err=%v", done, err)
	}
	if currentStream(n) != stream {
		t.Fatal("a per-record timeout replaced the node's stream")
	}
	for i, c := range cells {
		if c.Data[0] != 1 {
			t.Errorf("cell %d = %g, want exactly one application", i, c.Data[0])
		}
	}
}

// A burst of dispatches to one node shares its stream: every request is
// answered once.
func TestStreamConcurrentShips(t *testing.T) {
	const k, node = 32, "busy-node"
	cl, err := taskrt.NewCodelet("bump",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			tc.Payload(0).(*blas.Matrix).Data[0]++
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	w, srv := startWorker(t, node, cl, WorkerConfig{Slots: 4})
	st, cells := liveRun(t, node, w, srv, cl, k, nil)
	dispatchAll(t, st, st.graph.Tasks())
	seen := map[*inflightRec]bool{}
	for i := 0; i < k; i++ {
		ev := nextResult(t, st)
		if seen[ev.rec] || ev.err != nil {
			t.Fatalf("outcome %d: duplicate=%v err=%v", i, seen[ev.rec], ev.err)
		}
		seen[ev.rec] = true
		if done, err := st.handleResult(ev); done != 1 || err != nil {
			t.Fatalf("outcome %d: done=%v err=%v", i, done, err)
		}
	}
	for i, c := range cells {
		if c.Data[0] != 1 {
			t.Errorf("cell %d = %g, want 1", i, c.Data[0])
		}
	}
	if got := cm.reconnects.With(node).Value(); got != 0 {
		t.Errorf("healthy runs reconnected %g times", got)
	}
}

// --- the master's request body ---

// recordingWriter keeps each Write it is given, as net/http's chunked writer
// would send each as one chunk.
type recordingWriter struct{ writes [][]byte }

func (r *recordingWriter) Write(p []byte) (int, error) {
	r.writes = append(r.writes, bytes.Clone(p))
	return len(p), nil
}

// Each pipe write reaches the transport as one Write, cut only at the
// body's buffer, and the body ends the way the pipe does.
func TestStreamBodyPassesWholeWrites(t *testing.T) {
	pr, pw := io.Pipe()
	msgs := [][]byte{make([]byte, 10), make([]byte, 128<<10), make([]byte, 300<<10)}
	for i, m := range msgs {
		rand.New(rand.NewSource(int64(i))).Read(m)
	}
	go func() {
		for _, m := range msgs {
			pw.Write(m)
		}
		pw.Close()
	}()
	var rec recordingWriter
	n, err := streamBody{pr}.WriteTo(&rec)
	sent := bytes.Join(msgs, nil)
	if err != nil || n != int64(len(sent)) {
		t.Fatalf("WriteTo = %d, %v; want %d, nil", n, err, len(sent))
	}
	var sizes []int
	for _, w := range rec.writes {
		sizes = append(sizes, len(w))
	}
	if want := []int{10, 128 << 10, streamChunk, 300<<10 - streamChunk}; !slices.Equal(sizes, want) {
		t.Errorf("writes of %v bytes, want %v", sizes, want)
	}
	if !bytes.Equal(bytes.Join(rec.writes, nil), sent) {
		t.Error("the bytes written are not the bytes sent")
	}

	// The stream's end closes the pipe with its reason: WriteTo returns it.
	pr, pw = io.Pipe()
	broken := errors.New("stream broken")
	pw.CloseWithError(broken)
	if _, err := (streamBody{pr}).WriteTo(&rec); err != broken {
		t.Errorf("WriteTo after CloseWithError = %v, want %v", err, broken)
	}

	// The transport closes the body when it gives up on the request: the
	// sender's write fails instead of waiting for a reader.
	pr, pw = io.Pipe()
	wrote := make(chan error)
	go func() {
		_, err := pw.Write(make([]byte, 10))
		wrote <- err
	}()
	streamBody{pr}.Close()
	if err := <-wrote; err != io.ErrClosedPipe {
		t.Errorf("write to a closed body = %v, want %v", err, io.ErrClosedPipe)
	}
}

// countingConn counts the writes a connection makes and the bytes in them.
type countingConn struct {
	net.Conn
	writes, written atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.written.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// A tile crosses the socket in few large writes, not in net/http's 32 KiB
// pieces of three writes each. It counts, never times.
func TestExecuteStreamWritesWholeFrames(t *testing.T) {
	cl := gemmTestCodelet(t, 0)
	_, srv := startWorker(t, "w", cl, WorkerConfig{})
	var mu sync.Mutex
	var conns []*countingConn
	transport := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := new(net.Dialer).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		cc := &countingConn{Conn: c}
		mu.Lock()
		conns = append(conns, cc)
		mu.Unlock()
		return cc, nil
	}}
	t.Cleanup(transport.CloseIdleConnections)

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 384, 128) // 27 distinct 128×128 tiles
	m := fastMaster(t, []NodeConfig{{Name: "w", Addr: srv.URL}},
		func(cfg *Config) { cfg.HTTP = &http.Client{Transport: transport} })
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)
	if rep.Transfers < 8 {
		t.Fatalf("%d tiles shipped, want at least 8", rep.Transfers)
	}

	// The execute stream is the connection that carried the most bytes.
	mu.Lock()
	defer mu.Unlock()
	var stream *countingConn
	for _, cc := range conns {
		if stream == nil || cc.written.Load() > stream.written.Load() {
			stream = cc
		}
	}
	writes, sent := stream.writes.Load(), stream.written.Load()
	if sent < rep.TransferBytes {
		t.Fatalf("the busiest connection carried %d bytes, less than the %d shipped", sent, rep.TransferBytes)
	}
	if per := sent / writes; per < 32<<10 {
		t.Errorf("%d bytes in %d socket writes (%d per write) for %d tiles; want at least 32 KiB per write",
			sent, writes, per, rep.Transfers)
	}
}
