package cluster

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/taskrt"
)

// --- the chain protocol, played event by event ---

// cellRun is a runState over real workers (one node per server, each up with
// the worker's own credits) and the graph build submits.
func cellRun(t *testing.T, servers map[string]*httptest.Server, workers map[string]*Worker, mut func(*Config), build func(*taskrt.Runtime) []*taskrt.Task) *runState {
	t.Helper()
	cfg := Config{BackoffBase: time.Millisecond, BackoffCap: time.Millisecond, Logf: t.Logf}
	for name, srv := range servers {
		cfg.Nodes = append(cfg.Nodes, NodeConfig{Name: name, Addr: srv.URL})
	}
	if mut != nil {
		mut(&cfg)
	}
	st := newRunState(t, cfg, build)
	for _, n := range st.nodes {
		st.nodeUp(n, workers[n.cfg.Name].Info())
	}
	return st
}

// cellChain submits length tasks that each read-write the same 1×1 cell: one
// chain. The label is the step's index.
func cellChain(cl *taskrt.Codelet, cell *blas.Matrix, length int) func(*taskrt.Runtime) []*taskrt.Task {
	return func(rt *taskrt.Runtime) []*taskrt.Task {
		h := rt.NewHandle("cell", 8, cell)
		batch := make([]*taskrt.Task, length)
		for i := range batch {
			batch[i] = &taskrt.Task{Codelet: cl, Accesses: []taskrt.Access{taskrt.RW(h)}, Label: strconv.Itoa(i)}
		}
		return batch
	}
}

// gate blocks kernels until the test opens it. Register open with t.Cleanup
// after starting the workers, so a test that fails early still lets their
// kernels — and with them the servers' shutdown — finish.
type gate struct {
	ch   chan struct{}
	once sync.Once
}

func newGate() *gate  { return &gate{ch: make(chan struct{})} }
func (g *gate) open() { g.once.Do(func() { close(g.ch) }) }
func (g *gate) wait() { <-g.ch }

// placeHead places the chain behind head the way the loop does and returns its
// record.
func placeHead(t testing.TB, st *runState, head *taskrt.Task) *inflightRec {
	t.Helper()
	n, chain, c, ok := st.choose(head)
	if !ok {
		t.Fatalf("task %d: no node chosen", head.ID())
	}
	st.dispatch(n, chain, c)
	return st.task[head.ID()].inflight
}

// inflightRecs lists the invocations in flight, each once, in the order of
// their first member.
func (st *runState) inflightRecs() []*inflightRec {
	var recs []*inflightRec
	seen := map[*inflightRec]bool{}
	for i := range st.task {
		if rec := st.task[i].inflight; rec != nil && !seen[rec] {
			seen[rec] = true
			recs = append(recs, rec)
		}
	}
	return recs
}

// doneCount is how many tasks the master has applied.
func (st *runState) doneCount() int {
	k := 0
	for i := range st.task {
		if st.task[i].done {
			k++
		}
	}
	return k
}

// residents is how many handles the node is believed to cache.
func (n *nodeState) residents() int {
	k := 0
	for _, c := range n.has {
		if c.ok {
			k++
		}
	}
	return k
}

// checkBacklog asserts Σ node backlog == Σ Charge() of in-flight records, one
// credit per record.
func checkBacklog(t *testing.T, st *runState) {
	t.Helper()
	charged, held := map[*nodeState]int64{}, map[*nodeState]int{}
	recs := st.inflightRecs()
	if len(recs) != st.flying {
		t.Fatalf("%d records in flight by the task table, %d by the counter", len(recs), st.flying)
	}
	for _, rec := range recs {
		charged[rec.node] += rec.cand.Charge()
		held[rec.node]++
	}
	for _, n := range st.nodes {
		if n.backlog != charged[n] || (n.alive && n.maxCred-n.credits != held[n]) {
			t.Fatalf("node %s: backlog %d ns and %d of %d credits out, with %d records charging %d ns in flight",
				n.cfg.Name, n.backlog, n.maxCred-n.credits, n.maxCred, held[n], charged[n])
		}
	}
}

// A kernel that fails at step k of a chain, after mutating its operand in
// place: the master's state stays where it was before the chain, the failing
// member — not the head — pays the attempt, and the retry starts from the
// master's bytes, so each step is applied exactly once.
func TestChainMidChainKernelFailure(t *testing.T) {
	const length, failAt = 4, 2
	var failed atomic.Bool
	cl, err := taskrt.NewCodelet("bump",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			tc.Payload(0).(*blas.Matrix).Data[0]++
			if tc.Task.Label == strconv.Itoa(failAt) && failed.CompareAndSwap(false, true) {
				return fmt.Errorf("injected failure after mutation")
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	w, srv := startWorker(t, "n", cl, WorkerConfig{})
	cell := blas.NewMatrix(1, 1)
	st := cellRun(t, map[string]*httptest.Server{"n": srv}, map[string]*Worker{"n": w}, nil, cellChain(cl, cell, length))
	n, head, h := st.nodes[0], st.graph.Tasks()[0], st.graph.Tasks()[0].Accesses[0].Handle.ID()

	rec := placeHead(t, st, head)
	if len(rec.members) != length {
		t.Fatalf("the chain behind the head has %d members, want %d", len(rec.members), length)
	}
	for _, task := range st.graph.Tasks() {
		if st.task[task.ID()].inflight != rec {
			t.Fatalf("member %d does not map to the chain's record", task.ID())
		}
	}
	checkBacklog(t, st)

	ev := nextResult(t, st)
	if ev.err != nil || ev.resp.OK || ev.resp.FailedStep != failAt || len(ev.resp.Ran) != failAt {
		t.Fatalf("outcome: resp=%+v err=%v, want an in-band failure at step %d", ev.resp, ev.err, failAt)
	}
	if done, err := st.handleResult(ev); done != 0 || err != nil {
		t.Fatalf("handling the failure: done=%d err=%v", done, err)
	}
	if st.ver[h] != 0 || cell.Data[0] != 0 || st.doneCount() != 0 {
		t.Fatalf("after a failed chain: version %d, cell %g, %d tasks done; want the pre-chain state", st.ver[h], cell.Data[0], st.doneCount())
	}
	for i, task := range st.graph.Tasks() {
		want := 0
		if i == failAt {
			want = 1
		}
		if st.task[task.ID()].attempts != want {
			t.Errorf("member %d charged %d attempts, want %d", i, st.task[task.ID()].attempts, want)
		}
	}
	if n.has[h].ok {
		t.Error("the failed chain's written handle is still believed resident")
	}
	if recs := st.inflightRecs(); len(recs) != 0 || st.flying != 0 {
		t.Errorf("%d records still in flight (counter %d) after the failed one was handled", len(recs), st.flying)
	}
	checkBacklog(t, st)

	placeHead(t, st, head)
	ev = nextResult(t, st)
	if done, err := st.handleResult(ev); done != length || err != nil {
		t.Fatalf("retry: done=%d err=%v (resp %+v)", done, err, ev.resp)
	}
	if cell.Data[0] != length || st.ver[h] != length || !n.hasVersion(h, length) {
		t.Fatalf("after the retry: cell %g at version %d (node believed at %+v), want %d applications", cell.Data[0], st.ver[h], n.has[h], length)
	}
	if n.stats.Returns != 1 || n.stats.Invocations != 2 || n.stats.Tasks != length {
		t.Errorf("stats %+v: want one written payload for the chain, two invocations, %d tasks", n.stats, length)
	}
	checkBacklog(t, st)
}

// NeedData at a step behind the head bounces the whole invocation with nothing
// run and nothing lost: the operand the chain had checked out goes back, the
// master's state does not move, and the retry travels whole.
func TestChainNeedDataAtLaterStep(t *testing.T) {
	cl, err := taskrt.NewCodelet("add",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			c := tc.Payload(len(tc.Data) - 1).(*blas.Matrix)
			c.Data[0]++
			if len(tc.Data) == 2 {
				c.Data[0] += tc.Payload(0).(*blas.Matrix).Data[0]
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	w, srv := startWorker(t, "n", cl, WorkerConfig{})
	cell, extra := blas.NewMatrix(1, 1), blas.NewMatrix(1, 1)
	extra.Data[0] = 10
	st := cellRun(t, map[string]*httptest.Server{"n": srv}, map[string]*Worker{"n": w}, nil, func(rt *taskrt.Runtime) []*taskrt.Task {
		c, x := rt.NewHandle("cell", 8, cell), rt.NewHandle("extra", 8, extra)
		return []*taskrt.Task{
			{Codelet: cl, Accesses: []taskrt.Access{taskrt.RW(c)}},
			{Codelet: cl, Accesses: []taskrt.Access{taskrt.R(x), taskrt.RW(c)}},
			{Codelet: cl, Accesses: []taskrt.Access{taskrt.RW(c)}},
		}
	})
	n, head := st.nodes[0], st.graph.Tasks()[0]
	c, x := st.graph.Tasks()[1].Accesses[1].Handle.ID(), st.graph.Tasks()[1].Accesses[0].Handle.ID()
	n.has[x] = cached{0, true} // a stale belief: the worker never saw it

	if rec := placeHead(t, st, head); len(rec.members) != 3 {
		t.Fatalf("chain of %d members, want 3", len(rec.members))
	}
	ev := nextResult(t, st)
	if ev.err != nil || len(ev.resp.NeedData) != 1 || ev.resp.NeedData[0] != x || len(ev.resp.Ran) != 0 {
		t.Fatalf("outcome: resp=%+v err=%v, want NeedData for the handle step 1 reads and nothing run", ev.resp, ev.err)
	}
	if entries, _ := w.CacheStats(); entries != 1 {
		t.Errorf("worker caches %d entries after the bounce, want the cell put back", entries)
	}
	if done, err := st.handleResult(ev); done != 0 || err != nil {
		t.Fatalf("handling NeedData: done=%d err=%v", done, err)
	}
	if len(st.ready) != 1 || st.ready[0] != head || st.ver[c] != 0 || n.residents() != 0 || st.task[head.ID()].attempts != 0 {
		t.Fatalf("after the bounce: ready %v, version %d, residency %v, attempts %d; want the head ready at once and everything the chain touches forgotten",
			st.ready, st.ver[c], n.has, st.task[head.ID()].attempts)
	}
	st.dispatchReady()
	if done, err := st.handleResult(nextResult(t, st)); done != 3 || err != nil {
		t.Fatalf("retry: done=%d err=%v", done, err)
	}
	if cell.Data[0] != 13 || n.stats.NeedData != 1 {
		t.Fatalf("cell = %g after %d bounces, want 13 after one", cell.Data[0], n.stats.NeedData)
	}
}

// A node declared dead in the middle of a chain: every member counts as lost
// work, the chain forms again on the survivor from the master's state, and the
// dead node's late result — a whole chain's worth — is dropped, not applied on
// top.
func TestChainNodeKilledMidChain(t *testing.T) {
	const length = 3
	gates := []*gate{newGate(), newGate()}
	var reached atomic.Int32
	cl, err := taskrt.NewCodelet("bump",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			if tc.Task.Label == "1" {
				gates[reached.Add(1)-1].wait()
			}
			tc.Payload(0).(*blas.Matrix).Data[0]++
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	wa, sa := startWorker(t, "a", cl, WorkerConfig{})
	wb, sb := startWorker(t, "b", cl, WorkerConfig{})
	t.Cleanup(gates[0].open)
	t.Cleanup(gates[1].open)
	cell := blas.NewMatrix(1, 1)
	st := cellRun(t, map[string]*httptest.Server{"a": sa, "b": sb}, map[string]*Worker{"a": wa, "b": wb}, nil, cellChain(cl, cell, length))
	head := st.graph.Tasks()[0]

	first := placeHead(t, st, head)
	waitFor(t, "the chain to reach its second step", func() bool { return reached.Load() == 1 })
	st.nodeDown(first.node)
	if first.node.stats.Resubmits != length {
		t.Fatalf("resubmissions = %d, want every member of the lost chain: %d", first.node.stats.Resubmits, length)
	}
	if recs := st.inflightRecs(); len(recs) != 0 || st.flying != 0 {
		t.Fatalf("%d records still in flight on the dead node (counter %d)", len(recs), st.flying)
	}
	checkBacklog(t, st)

	second := placeHead(t, st, head)
	if second.node == first.node || len(second.members) != length {
		t.Fatalf("the chain re-formed as %d members on %s", len(second.members), second.node.cfg.Name)
	}
	waitFor(t, "the copy to reach its second step", func() bool { return reached.Load() == 2 })
	gates[0].open()
	late := nextResult(t, st)
	if late.rec != first || late.err != nil || !late.resp.OK {
		t.Fatalf("expected the dead node's late success, got rec on %s resp=%+v err=%v", late.rec.node.cfg.Name, late.resp, late.err)
	}
	if done, err := st.handleResult(late); done != 0 || err != nil {
		t.Fatalf("late result: done=%d err=%v, want it dropped", done, err)
	}
	if cell.Data[0] != 0 || st.doneCount() != 0 {
		t.Fatalf("the late result moved state: cell %g, %d done", cell.Data[0], st.doneCount())
	}
	gates[1].open()
	if done, err := st.handleResult(nextResult(t, st)); done != length || err != nil {
		t.Fatalf("the copy: done=%d err=%v", done, err)
	}
	if cell.Data[0] != length {
		t.Fatalf("cell = %g, want %d: each step applied exactly once", cell.Data[0], length)
	}
	checkBacklog(t, st)
}

// Write-mode operands are checked out of the worker's cache while a kernel
// holds them. A kernel that mutates its operand and then outlives ExecTimeout
// leaves the master believing the node still caches the old version; the retry
// by reference must bounce and run on the master's bytes, not resolve the
// half-written object and apply the kernel to it a second time.
func TestCheckoutRetryAfterTimeoutRunsOnCanonicalBytes(t *testing.T) {
	hung := newGate()
	var runs atomic.Int32
	cl, err := taskrt.NewCodelet("scale-add",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			c := tc.Payload(0).(*blas.Matrix)
			c.Data[0] = c.Data[0]*1.5 + 0.1
			if runs.Add(1) == 1 {
				hung.wait()
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	w, srv := startWorker(t, "n", cl, WorkerConfig{Slots: 2})
	t.Cleanup(hung.open)
	cell := blas.NewMatrix(1, 1)
	cell.Data[0] = 2
	st := cellRun(t, map[string]*httptest.Server{"n": srv}, map[string]*Worker{"n": w},
		func(cfg *Config) { cfg.ExecTimeout = 100 * time.Millisecond }, cellChain(cl, cell, 1))
	n, head := st.nodes[0], st.graph.Tasks()[0]

	placeHead(t, st, head)
	ev := nextResult(t, st)
	if ev.err == nil {
		t.Fatalf("first outcome: resp=%+v, want the timeout", ev.resp)
	}
	if done, err := st.handleResult(ev); done != 0 || err != nil {
		t.Fatalf("handling the timeout: done=%d err=%v", done, err)
	}
	if !n.hasVersion(head.Accesses[0].Handle.ID(), 0) {
		t.Fatal("a timeout is not evidence about the node's cache: residency should be untouched")
	}

	placeHead(t, st, head) // to the same live node, by reference
	ev = nextResult(t, st)
	if ev.err != nil || len(ev.resp.NeedData) != 1 {
		t.Fatalf("retry by reference: resp=%+v err=%v, want NeedData — the operand is checked out", ev.resp, ev.err)
	}
	if done, err := st.handleResult(ev); done != 0 || err != nil {
		t.Fatalf("handling the bounce: done=%d err=%v", done, err)
	}
	st.dispatchReady()
	ev = nextResult(t, st)
	if done, err := st.handleResult(ev); done != 1 || err != nil {
		t.Fatalf("retry with the master's bytes: done=%d err=%v resp=%+v", done, err, ev.resp)
	}
	if want := 2*1.5 + 0.1; cell.Data[0] < want-1e-9 || cell.Data[0] > want+1e-9 {
		t.Fatalf("cell = %g, want %g: the kernel applied once to the master's value", cell.Data[0], want)
	}
	if n.stats.NeedData != 1 {
		t.Errorf("%d NeedData bounces, want 1", n.stats.NeedData)
	}
}

// The per-node sender writes requests in dispatch order, and the master counts
// on it: a payload goes inline once, in the first request that needs it, and
// every request dispatched after — while the first is still in flight — names
// it by version alone. With one goroutine per invocation racing for the stream
// a reference could overtake its payload.
func TestSenderOrderIsDispatchOrder(t *testing.T) {
	const k = 200
	var (
		mu       sync.Mutex
		arrivals []int
		inlined  = map[int]int{}
	)
	seen := func(req *ExecRequest) {
		mu.Lock()
		defer mu.Unlock()
		arrivals = append(arrivals, req.TaskID)
		for _, a := range req.Accesses {
			if a.FrameLen > 0 {
				inlined[a.HandleID]++
			}
		}
	}
	cl, err := taskrt.NewCodelet("k", taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nodes: []NodeConfig{{Name: "n", Addr: "http://n.invalid"}}, HTTP: &http.Client{Transport: okTransport{seen: seen}}}
	var shared int
	st := newRunState(t, cfg, func(rt *taskrt.Runtime) []*taskrt.Task {
		common := rt.NewHandle("shared", 32, blas.NewMatrix(2, 2))
		shared = common.ID()
		batch := make([]*taskrt.Task, k)
		for i := range batch {
			own := rt.NewHandle("own", 8, blas.NewMatrix(1, 1))
			batch[i] = &taskrt.Task{Codelet: cl, Accesses: []taskrt.Access{taskrt.R(common), taskrt.RW(own)}}
		}
		return batch
	})
	n := st.nodes[0]
	n.alive, n.credits, n.maxCred = true, k, k
	n.info = InfoResponse{Archs: []string{"x86"}}

	st.ready = append(st.ready, st.graph.Tasks()...)
	st.dispatchReady() // k invocations queued back to back, none answered yet
	if len(st.ready) != 0 {
		t.Fatalf("%d tasks left undispatched", len(st.ready))
	}
	for i := 0; i < k; i++ {
		if done, err := st.handleResult(nextResult(t, st)); done != 1 || err != nil {
			t.Fatalf("result %d: done=%d err=%v", i, done, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, id := range arrivals {
		if id != st.graph.Tasks()[i].ID() {
			t.Fatalf("request %d on the stream is task %d, want task %d: the stream is out of dispatch order", i, id, st.graph.Tasks()[i].ID())
		}
	}
	if inlined[shared] != 1 {
		t.Fatalf("the shared operand travelled %d times with %d invocations in flight, want once", inlined[shared], k)
	}
	if n.stats.Transfers != k+1 {
		t.Errorf("%d transfers, want %d: each task's own cell and the shared operand once", n.stats.Transfers, k+1)
	}
}

// tamperTransport lets the test drop or repeat ExecResponse messages on their
// way back to the master: tamper says how many copies of each to deliver.
type tamperTransport struct {
	tamper func(resp *ExecResponse) (copies int)
}

func (tt tamperTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || r.URL.Path != PathExecute || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	pr, pw := io.Pipe()
	inner := resp.Body
	go func() {
		in, out := newMessageReader(inner, 1<<30), newMessageWriter(pw)
		for {
			msg, err := readResponse(in)
			if err == nil {
				for c := tt.tamper(msg); err == nil && c > 0; c-- {
					err = out.write(msg, returnedFrames(msg))
				}
			}
			if err != nil {
				inner.Close()
				pw.CloseWithError(err)
				return
			}
		}
	}()
	resp.Body = pr
	return resp, nil
}

// A chain's response lost on the way back, and another delivered twice: the
// lost one times out, its retry by reference bounces off the worker (which ran
// the chain and holds its output at the final version, not the one the master
// still names) and reruns from the master's bytes; the repeated one is matched
// once. Every k-step lands exactly once.
func TestChainResponseDroppedOrDuplicated(t *testing.T) {
	cl := gemmTestCodelet(t, 0)
	_, srv := startWorker(t, "solo", cl, WorkerConfig{Slots: 2})
	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 48, 16)

	var dropped, repeated atomic.Int32
	tamper := func(resp *ExecResponse) int {
		switch {
		case !resp.OK:
			return 1
		case dropped.CompareAndSwap(0, 1):
			return 0
		case repeated.CompareAndSwap(0, 1):
			return 2
		}
		return 1
	}
	m := fastMaster(t, []NodeConfig{{Name: "solo", Addr: srv.URL}}, func(cfg *Config) {
		cfg.HTTP = &http.Client{Transport: tamperTransport{tamper}}
		cfg.ExecTimeout = 150 * time.Millisecond
	})
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)
	if dropped.Load() != 1 || repeated.Load() != 1 {
		t.Fatalf("dropped %d and repeated %d responses; the test exercised nothing", dropped.Load(), repeated.Load())
	}
	solo := rep.PerNode[0]
	if solo.Tasks != rep.Tasks || solo.Returns != 9 {
		t.Errorf("%d tasks applied with %d written payloads, want %d and one per C tile (9)", solo.Tasks, solo.Returns, rep.Tasks)
	}
	if solo.NeedData == 0 || rep.FailedAttempts != 0 {
		t.Errorf("NeedData %d, failed attempts %d: the lost chain's retry should bounce off the worker's newer version, and no task is at fault", solo.NeedData, rep.FailedAttempts)
	}
}

// --- the worker's end ---

// A chain request runs its steps in order on one slot, keeps the versions in
// between to itself, and sends each written handle back once.
func TestWorkerRunsChainInOrder(t *testing.T) {
	var (
		mu    sync.Mutex
		order []string
	)
	cl, err := taskrt.NewCodelet("append",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			mu.Lock()
			defer mu.Unlock()
			order = append(order, tc.Task.Label)
			c := tc.Payload(0).(*blas.Matrix)
			c.Data[0] = c.Data[0]*10 + float64(len(order))
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startWorker(t, "w", cl, WorkerConfig{})
	frame, err := EncodePayload(blas.NewMatrix(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	step := func(id int, ver uint64, inline []byte) ExecStep {
		return ExecStep{TaskID: id, Codelet: "append", Label: strconv.Itoa(id),
			Accesses: []AccessSpec{{HandleID: 7, Bytes: 8, Mode: int(taskrt.ReadWrite), Version: ver, Inline: inline}}}
	}
	resp := postExec(t, srv.URL, newExecRequest([]ExecStep{step(0, 4, frame), step(1, 5, nil), step(2, 6, nil)}))
	if !resp.OK || len(resp.Ran) != 3 || len(resp.Spans) != 3 {
		t.Fatalf("chain response %+v, want three steps run and three spans", resp)
	}
	if len(resp.Written) != 1 || resp.Written[0].HandleID != 7 || resp.Written[0].Version != 7 {
		t.Fatalf("written = %+v, want handle 7 once, at version 7", resp.Written)
	}
	got := resp.Written[0].payload
	mu.Lock()
	ran := fmt.Sprint(order)
	mu.Unlock()
	if v := got.(*blas.Matrix).Data[0]; v != 123 || ran != "[0 1 2]" {
		t.Fatalf("result %g after steps %s, want 123 after [0 1 2]", v, ran)
	}
	for i, e := range resp.Spans {
		if e.TaskID != i {
			t.Errorf("span %d belongs to task %d", i, e.TaskID)
		}
	}
	// The final version is what the cache holds now; the ones in between never
	// were.
	if r := postExec(t, srv.URL, newExecRequest([]ExecStep{step(3, 5, nil)})); len(r.NeedData) != 1 {
		t.Errorf("an intermediate version resolved from the cache: %+v", r)
	}
	if r := postExec(t, srv.URL, newExecRequest([]ExecStep{step(3, 7, nil)})); !r.OK || r.Written[0].Version != 8 {
		t.Errorf("the final version does not resolve: %+v", r)
	}
	// A step naming a version the chain does not produce bounces the whole
	// request, and what it had taken goes back.
	if r := postExec(t, srv.URL, newExecRequest([]ExecStep{step(4, 8, nil), step(5, 8, nil)})); len(r.NeedData) != 1 || len(r.Ran) != 0 {
		t.Errorf("a chain with a gap in its versions: %+v", r)
	}
	if r := postExec(t, srv.URL, newExecRequest([]ExecStep{step(4, 8, nil)})); !r.OK {
		t.Errorf("the bounced chain did not put its operand back: %+v", r)
	}
}

// Recording a span used to hand the slot's whole 1024-event shard chunk to the
// trace and allocate the next, ~200 KB per kernel.
func TestWorkerExecuteAllocations(t *testing.T) {
	cl, err := taskrt.NewCodelet("nop", taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{Name: "w", Archs: []string{"x86"}, Codelets: []*taskrt.Codelet{cl}})
	if err != nil {
		t.Fatal(err)
	}
	req := &ExecRequest{Codelet: "nop", Label: "t"}
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if resp := w.execute(w.admit(req)); !resp.OK {
			t.Fatal(resp.Error)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 16<<10 {
		t.Fatalf("a no-op invocation allocates %d bytes, want under 16 KiB", per)
	}
}

// --- random graphs under random faults ---

// TestChainRandomGraphsUnderFaults runs seeded random DAGs — chains, forks,
// joins and diamonds fall out of random accesses to a few handles — through
// two loopback workers while a seeded schedule fails kernels after they have
// mutated their operands and takes one node away (for a while, or for good),
// and checks every handle's final value against executing the tasks one by
// one in submission order. The kernel is not commutative, so a step applied
// twice, skipped, reordered or fed a stale operand changes the result.
func TestChainRandomGraphsUnderFaults(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		runRandomGraph(t, seed)
		if t.Failed() {
			t.Fatalf("seed %d failed (replay: runRandomGraph(t, %d))", seed, seed)
		}
	}
}

func mixKernel(label string, data []float64, reads []float64) {
	salt, _ := strconv.Atoi(label)
	sum := float64(salt%7) + 1
	for i, r := range reads {
		sum += r * float64(i+2)
	}
	for i := range data {
		data[i] = data[i]*0.5 + sum
	}
}

func runRandomGraph(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	handles, tasks := 3+rng.Intn(6), 20+rng.Intn(50)

	// Kernel faults: the n-th kernel execution of the run fails when n is in
	// the schedule — after it has written, so a kept operand would be wrong.
	faults := map[int32]bool{}
	for i := rng.Intn(6); i > 0; i-- {
		faults[int32(rng.Intn(tasks))] = true
	}
	var execs atomic.Int32
	cl, err := taskrt.NewCodelet("mix",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			// Access 0 is the one the task writes; the rest it reads.
			var reads []float64
			for i := 1; i < len(tc.Data); i++ {
				reads = append(reads, tc.Payload(i).(*blas.Matrix).Data[0])
			}
			mixKernel(tc.Task.Label, tc.Payload(0).(*blas.Matrix).Data, reads)
			if faults[execs.Add(1)-1] {
				return fmt.Errorf("scheduled kernel fault")
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}

	_, steady := startWorker(t, "steady", cl, WorkerConfig{Slots: 1 + rng.Intn(2)})
	w2, err := NewWorker(WorkerConfig{Name: "flaky", Archs: []string{"x86"}, Slots: 1 + rng.Intn(2),
		Codelets: []*taskrt.Codelet{cl}, CacheEntries: 2 + rng.Intn(8)})
	if err != nil {
		t.Fatal(err)
	}
	proxy := &flakyProxy{inner: w2.Handler(), tripAt: 1 + rng.Intn(8)}
	flaky := httptest.NewServer(proxy)
	defer flaky.Close()
	if rng.Intn(2) == 0 { // the node comes back
		back := time.AfterFunc(time.Duration(20+rng.Intn(40))*time.Millisecond, func() { proxy.setTripped(false) })
		defer back.Stop()
	}

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]*blas.Matrix, handles)
	ref := make([][]float64, handles)
	hs := make([]*taskrt.Handle, handles)
	for i := range cells {
		cells[i] = blas.NewMatrix(1, 2)
		cells[i].Data[0], cells[i].Data[1] = rng.Float64(), rng.Float64()
		ref[i] = append([]float64(nil), cells[i].Data...)
		hs[i] = rt.NewHandle(fmt.Sprintf("h%d", i), 16, cells[i])
	}
	last := 0
	batch := make([]*taskrt.Task, tasks)
	for i := range batch {
		// Mostly keep writing the handle the previous task wrote (chains), and
		// otherwise move on (forks and joins through the reads).
		if rng.Intn(3) == 0 {
			last = rng.Intn(handles)
		}
		acc := []taskrt.Access{taskrt.RW(hs[last])}
		var reads []float64
		for _, h := range rng.Perm(handles)[:rng.Intn(3)] {
			if h != last {
				acc = append(acc, taskrt.R(hs[h]))
				reads = append(reads, ref[h][0])
			}
		}
		salt := strconv.Itoa(rng.Intn(1000))
		batch[i] = &taskrt.Task{Codelet: cl, Accesses: acc, Label: salt}
		mixKernel(salt, ref[last], reads) // submission order is a valid sequential execution
	}
	if err := rt.SubmitBatch(batch); err != nil {
		t.Fatal(err)
	}

	m := fastMaster(t, []NodeConfig{{Name: "steady", Addr: steady.URL}, {Name: "flaky", Addr: flaky.URL}},
		func(cfg *Config) { cfg.MaxAttempts = 20; cfg.Logf = nil })
	rep, err := m.Run(rt)
	if err != nil {
		t.Errorf("seed %d: %v", seed, err)
		return
	}
	for i := range cells {
		for j, want := range ref[i] {
			if got := cells[i].Data[j]; got != want {
				t.Errorf("seed %d: handle %d[%d] = %v, sequential execution gives %v (%d tasks, %d invocations, %d failed attempts, %d resubmitted, dead %v)",
					seed, i, j, got, want, rep.Tasks, rep.Invocations, rep.FailedAttempts, rep.Resubmissions, rep.DeadNodes)
			}
		}
	}
	applied, retries, resubmits := 0, 0, 0
	for _, n := range rep.PerNode {
		applied += n.Tasks
		retries += n.Retries
		resubmits += n.Resubmits
	}
	if applied != tasks {
		t.Errorf("seed %d: %d tasks applied, want each of %d exactly once", seed, applied, tasks)
	}
	if rep.FailedAttempts != retries || rep.Resubmissions != resubmits {
		t.Errorf("seed %d: report counts %d failed attempts and %d resubmissions, its nodes %d and %d",
			seed, rep.FailedAttempts, rep.Resubmissions, retries, resubmits)
	}
}

// The backoff before a chain's retry follows the member whose attempt failed,
// by taskrt's one formula (base·2^(n−1) after its n-th failure): a chain whose
// third step keeps failing waits base, then twice base. The master used to
// read the head's count — never charged here — and so retried at a flat base,
// and its own shift was one doubling ahead of the formula.
func TestBackoffFollowsFailingMember(t *testing.T) {
	const length, failAt, base = 4, 2, 80 * time.Millisecond
	cl, err := taskrt.NewCodelet("bump",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			if tc.Task.Label == strconv.Itoa(failAt) {
				return fmt.Errorf("step %d always fails", failAt)
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	w, srv := startWorker(t, "n", cl, WorkerConfig{})
	st := cellRun(t, map[string]*httptest.Server{"n": srv}, map[string]*Worker{"n": w},
		func(cfg *Config) { cfg.BackoffBase, cfg.BackoffCap = base, 8*base },
		cellChain(cl, blas.NewMatrix(1, 1), length))
	head := st.graph.Tasks()[0]

	for failure, factor := range []time.Duration{1, 2} {
		placeHead(t, st, head)
		ev := nextResult(t, st)
		if ev.err != nil || ev.resp.OK || ev.resp.FailedStep != failAt {
			t.Fatalf("outcome %d: resp=%+v err=%v, want an in-band failure at step %d", failure, ev.resp, ev.err, failAt)
		}
		handled := time.Now()
		if done, err := st.handleResult(ev); done != 0 || err != nil {
			t.Fatalf("handling failure %d: done=%d err=%v", failure, done, err)
		}
		if got := st.task[st.graph.Tasks()[failAt].ID()].attempts; got != failure+1 || st.task[head.ID()].attempts != 0 {
			t.Fatalf("after failure %d: the failing member is charged %d attempts and the head %d", failure, got, st.task[head.ID()].attempts)
		}
		select {
		case ev := <-st.events:
			if ev.kind != evRequeue || ev.task != head {
				t.Fatalf("after failure %d: event %+v, want the head requeued", failure, ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("failure %d: the head was never requeued", failure)
		}
		// A timer never fires early, so the lower bound is exact; the upper one
		// only has to tell this step from the next doubling on a busy host.
		want := factor * base
		if waited := time.Since(handled); waited < want-time.Millisecond || waited >= 2*want {
			t.Fatalf("failure %d of the member: the chain waited %v, want %v (base %v doubled per failure of that member)", failure+1, waited, want, base)
		}
	}
	if failed := st.nodes[0].stats.Retries; st.retriedTasks != 1 || failed != 2 {
		t.Fatalf("%d tasks retried over %d failed attempts, want 1 over 2", st.retriedTasks, failed)
	}
}
