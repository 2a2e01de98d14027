package cluster

import (
	"io"
	"net/http"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/taskrt"
)

// okTransport answers every request on an execute stream in process with a
// successful 1 ms kernel per step: the master's dispatch/sender/stream/
// handleResult path runs for real with no listener behind the node addresses.
// seen, when set, is told each request as it arrives.
type okTransport struct{ seen func(*ExecRequest) }

func (tr okTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	pr, pw := io.Pipe()
	go func() {
		defer r.Body.Close()
		in, out := newMessageReader(r.Body, 1<<30), newMessageWriter(pw)
		for {
			req, err := nextRequest(in)
			if err == nil {
				if tr.seen != nil {
					tr.seen(req)
				}
				ran := make([]StepRun, 1+len(req.Next))
				for i := range ran {
					ran[i] = StepRun{Seconds: 1e-3, Arch: "x86"}
				}
				err = out.write(&ExecResponse{TaskID: req.TaskID, Attempt: req.Attempt, OK: true, Ran: ran}, nil)
			}
			if err != nil {
				pw.Close()
				return
			}
		}
	}()
	return &http.Response{StatusCode: http.StatusOK, Body: pr, Request: r}, nil
}

// fakeRun is a runState over alive, unprobed nodes (x86, four credits, LAN
// link) and one independent task per read-only 2x2 handle of codelet "k".
func fakeRun(t *testing.T, models *perfmodel.Store, nodeNames []string, tasks int) *runState {
	t.Helper()
	cfg := Config{Models: models, HTTP: &http.Client{Transport: okTransport{}}}
	for _, name := range nodeNames {
		cfg.Nodes = append(cfg.Nodes, NodeConfig{Name: name, Addr: "http://" + name + ".invalid"})
	}
	cl, err := taskrt.NewCodelet("k", taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	st := newRunState(t, cfg, func(rt *taskrt.Runtime) []*taskrt.Task {
		batch := make([]*taskrt.Task, tasks)
		for i := range batch {
			h := rt.NewHandle("h", 32, blas.NewMatrix(2, 2))
			batch[i] = &taskrt.Task{Codelet: cl, Accesses: []taskrt.Access{taskrt.R(h)}, Flops: 1e6}
		}
		return batch
	})
	for _, n := range st.nodes {
		n.alive, n.credits = true, 4
		n.info = InfoResponse{Archs: []string{"x86"}}
	}
	return st
}

// newRunState is a runState for cfg over the graph batch submits, its nodes
// not yet up and no loop running: the test plays the loop, calling nodeUp,
// dispatch and handleResult itself.
func newRunState(t testing.TB, cfg Config, batch func(*taskrt.Runtime) []*taskrt.Task) *runState {
	t.Helper()
	st := buildRunState(t, cfg, batch)
	t.Cleanup(st.shutdown)
	return st
}

// buildRunState is newRunState for a caller that shuts the run down itself.
func buildRunState(t testing.TB, cfg Config, batch func(*taskrt.Runtime) []*taskrt.Task) *runState {
	t.Helper()
	m, err := NewMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SubmitBatch(batch(rt)); err != nil {
		t.Fatal(err)
	}
	st, err := m.newRun(rt.Graph())
	if err != nil {
		t.Fatal(err)
	}
	st.events = make(chan event, len(st.graph.Tasks())) // nobody drains it but the test
	return st
}

// Once its request is on the stream a record points at no payload: the sender
// announced each in the request, wrote it behind it and dropped the list.
func TestShippedRecordHoldsNoPayload(t *testing.T) {
	st := fakeRun(t, nil, []string{"a"}, 1)
	rec := placeHead(t, st, st.graph.Tasks()[0])
	// The answer follows the request, so ship is done with the record.
	if ev := nextResult(t, st); ev.rec != rec || ev.err != nil {
		t.Fatalf("outcome %+v, want the record's answer", ev)
	}
	if a := rec.req.Accesses[0]; rec.inline != nil || rec.inlines != 1 || rec.shipped == 0 || a.FrameLen != rec.shipped || a.Inline != nil {
		t.Fatalf("after ship: %d payloads still referenced, %d inlined as %d bytes, %d announced in the request, %d inside it",
			len(rec.inline), rec.inlines, rec.shipped, a.FrameLen, len(a.Inline))
	}
}

// What dispatch adds to a node's backlog — execution estimate and the price
// of the payloads it inlines — is what the result, or the node's death, takes
// back. The master used to release the estimate alone, so every inlined byte
// inflated that node's backlog for the rest of the run.
func TestMasterBacklogReleasesWhatDispatchCharged(t *testing.T) {
	const k = 6
	st := fakeRun(t, nil, []string{"a", "b"}, k)
	placeAll := func(tasks []*taskrt.Task) {
		t.Helper()
		for _, task := range tasks {
			n, chain, c, ok := st.choose(task)
			if !ok {
				t.Fatalf("task %d: no node chosen", task.ID())
			}
			if c.Xfer <= 0 {
				t.Fatalf("task %d: inlining a non-resident payload priced at %d ns", task.ID(), c.Xfer)
			}
			before := n.backlog
			st.dispatch(n, chain, c)
			if n.backlog-before != c.Charge() {
				t.Fatalf("dispatch charged %d ns, Candidate.Charge is %d", n.backlog-before, c.Charge())
			}
		}
	}

	placeAll(st.graph.Tasks()[:k-2])
	for i := 0; i < k-2; i++ {
		if done, err := st.handleResult(<-st.events); done != 1 || err != nil {
			t.Fatalf("result %d: done=%v err=%v", i, done, err)
		}
	}
	for _, n := range st.nodes {
		if n.backlog != 0 || n.credits != 4 {
			t.Errorf("node %s after every result: backlog %d ns, %d credits; want 0 and 4", n.cfg.Name, n.backlog, n.credits)
		}
		if n.stats.Transfers == 0 {
			t.Errorf("node %s inlined nothing: the transfer term was never exercised", n.cfg.Name)
		}
	}

	// The other way out: the node dies with invocations in flight.
	placeAll(st.graph.Tasks()[k-2:])
	for _, n := range st.nodes {
		st.nodeDown(n)
		if n.backlog != 0 {
			t.Errorf("node %s after nodeDown: backlog %d ns, want 0", n.cfg.Name, n.backlog)
		}
	}
	if st.flying != 0 {
		t.Errorf("%d invocations still in flight after every node died", st.flying)
	}
}

// The master's placement is internal/placement's rule over node-level terms;
// these are the two terms only the master supplies.
func TestMasterChoose(t *testing.T) {
	models := perfmodel.NewStore()
	for _, flops := range []float64{5e5, 1e6, 2e6} {
		if err := models.Model("k", "x86").Record(flops, flops/1e9); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("straggler loses to a healthy node at equal backlog", func(t *testing.T) {
		st := fakeRun(t, models, []string{"slow", "healthy"}, 1)
		st.nodes[0].slowEWMA = 3
		for i := 0; i < 4; i++ { // every tie-break start
			n, _, c, ok := st.choose(st.graph.Tasks()[0])
			if !ok || n != st.nodes[1] {
				t.Fatalf("pick %d: chose %v, want the healthy node", i, n)
			}
			if c.Source != placement.Model || c.Exec <= 0 {
				t.Fatalf("pick %d: candidate %+v, want a positive model estimate", i, c)
			}
		}
		// The penalty is charged, not just scored.
		st.nodes[1].alive = false
		_, _, c, _ := st.choose(st.graph.Tasks()[0])
		if want := 3*c.Exec + c.Xfer; c.Charge() != want || c.Exec <= 0 {
			t.Fatalf("straggler charge %d, want 3 × exec + xfer = %d", c.Charge(), want)
		}
	})

	t.Run("resident version wins over inlining", func(t *testing.T) {
		st := fakeRun(t, models, []string{"cold", "resident"}, 1)
		h := st.graph.Tasks()[0].Accesses[0].Handle
		st.nodes[1].has[h.ID()] = cached{st.ver[h.ID()], true}
		for i := 0; i < 4; i++ {
			n, _, c, ok := st.choose(st.graph.Tasks()[0])
			if !ok || n != st.nodes[1] || c.Xfer != 0 {
				t.Fatalf("pick %d: chose %v with xfer %d, want the resident node at 0", i, n, c.Xfer)
			}
		}
		// A stale version is not residency.
		st.ver[h.ID()]++
		_, _, c, _ := st.choose(st.graph.Tasks()[0])
		if c.Xfer != lanLink.Nanos(h.Bytes) {
			t.Fatalf("stale version priced at %d ns, want one inlined payload = %d", c.Xfer, lanLink.Nanos(h.Bytes))
		}
	})
}

// dispatchReady places in ready order and stops when the last credit goes:
// what it could not place keeps its order, a task no node with credit can run
// keeps its place at the front, and no pick — each advances the tie-break
// cursor — is spent on a task with nowhere to go.
func TestDispatchReadyStopsAtTheLastCredit(t *testing.T) {
	const k = 12
	mk := func(name string) *taskrt.Codelet {
		cl, err := taskrt.NewCodelet(name, taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	cfg := Config{HTTP: &http.Client{Transport: okTransport{}},
		Nodes: []NodeConfig{{Name: "a", Addr: "http://a.invalid"}, {Name: "b", Addr: "http://b.invalid"}}}
	st := newRunState(t, cfg, func(rt *taskrt.Runtime) []*taskrt.Task {
		batch := []*taskrt.Task{{Codelet: mk("only-b")}}
		for common := mk("k"); len(batch) <= k; {
			batch = append(batch, &taskrt.Task{Codelet: common})
		}
		return batch
	})
	a, b := st.nodes[0], st.nodes[1]
	a.alive, a.credits, a.info = true, 4, InfoResponse{Archs: []string{"x86"}, Codelets: []string{"k"}}
	b.alive, b.credits, b.info = true, 0, InfoResponse{Archs: []string{"x86"}, Codelets: []string{"k", "only-b"}} // busy: only a takes work
	stuck, tasks := st.graph.Tasks()[0], st.graph.Tasks()[1:]
	st.ready = append([]*taskrt.Task{stuck}, tasks...)

	st.dispatchReady()
	if a.credits != 0 || st.flying != 4 {
		t.Fatalf("after the first pass: a holds %d credits, %d in flight; want 0 and 4", a.credits, st.flying)
	}
	for i, task := range tasks[:4] {
		if rec := st.task[task.ID()].inflight; rec == nil || rec.node != a {
			t.Fatalf("ready task %d was not placed on the node with credit", i)
		}
	}
	want := append([]*taskrt.Task{stuck}, tasks[4:]...)
	if len(st.ready) != len(want) {
		t.Fatalf("%d tasks left ready, want %d", len(st.ready), len(want))
	}
	for i := range want {
		if st.ready[i] != want[i] {
			t.Fatalf("ready[%d] is out of order after the pass", i)
		}
	}
	if st.cursor != 5 {
		t.Errorf("the pass made %d picks, want 5: the stuck task and four placements", st.cursor)
	}

	// No credit anywhere: the pass touches nothing.
	st.dispatchReady()
	if st.cursor != 5 || len(st.ready) != len(want) || st.ready[0] != stuck {
		t.Errorf("a pass with no free credit made picks or reordered ready (cursor %d)", st.cursor)
	}

	// Credit on b: the stuck task goes first, then the rest in order.
	b.credits = 2
	st.dispatchReady()
	if rec := st.task[stuck.ID()].inflight; rec == nil || rec.node != b {
		t.Fatal("the deferred task did not go first once its node had credit")
	}
	if rec := st.task[tasks[4].ID()].inflight; rec == nil || rec.node != b || len(st.ready) != k-5 || st.ready[0] != tasks[5] {
		t.Fatalf("after credit on b: %d ready, want task 4 placed on b and task 5 next", len(st.ready))
	}
}

// A chain is one bid: the members' estimates summed, each payload that must
// travel priced once however many steps touch it, and nothing for the versions
// the chain makes itself. The node that already holds the chain's shared
// operands wins it, and dispatch records what the request makes resident.
func TestMasterChoosePricesTheChainAsOneBid(t *testing.T) {
	const steps = 4
	models := perfmodel.NewStore()
	for _, flops := range []float64{5e5, 1e6, 2e6} {
		if err := models.Model("k", "x86").Record(flops, flops/1e9); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := taskrt.NewCodelet("k", taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Models: models, HTTP: &http.Client{Transport: okTransport{}},
		Nodes: []NodeConfig{{Name: "cold", Addr: "http://cold.invalid"}, {Name: "warm", Addr: "http://warm.invalid"}}}
	var row, acc *taskrt.Handle
	st := newRunState(t, cfg, func(rt *taskrt.Runtime) []*taskrt.Task {
		row = rt.NewHandle("row", 1<<20, blas.NewMatrix(2, 2)) // read by every step
		acc = rt.NewHandle("acc", 1<<10, blas.NewMatrix(2, 2)) // written by every step
		batch := make([]*taskrt.Task, steps)
		for i := range batch {
			batch[i] = &taskrt.Task{Codelet: cl, Accesses: []taskrt.Access{taskrt.R(row), taskrt.RW(acc)}, Flops: 1e6}
		}
		return batch
	})
	for _, n := range st.nodes {
		n.alive, n.credits = true, 4
		n.info = InfoResponse{Archs: []string{"x86"}}
	}
	cold, warm := st.nodes[0], st.nodes[1]
	warm.has[row.ID()] = cached{0, true}

	one, _ := st.modelNanos(st.graph.Tasks()[0], warm)
	for i := 0; i < 4; i++ { // every tie-break start
		n, chain, c, ok := st.choose(st.graph.Tasks()[0])
		if !ok || n != warm || len(chain) != steps {
			t.Fatalf("pick %d: a chain of %d on %v, want all %d steps on the node holding the row", i, len(chain), n, steps)
		}
		if c.Exec != steps*one || c.Xfer != lanLink.Nanos(acc.Bytes) {
			t.Fatalf("pick %d: bid exec %d xfer %d, want %d × %d and the accumulator alone, once (%d)", i, c.Exec, c.Xfer, steps, one, lanLink.Nanos(acc.Bytes))
		}
	}
	warm.alive = false
	_, _, c, _ := st.choose(st.graph.Tasks()[0])
	if want := lanLink.Nanos(row.Bytes) + lanLink.Nanos(acc.Bytes); c.Xfer != want {
		t.Fatalf("cold node's transfer %d, want the row and the accumulator once each = %d", c.Xfer, want)
	}

	// An interior member is not a head: behind it the chain is what is left.
	if run := st.chainBehind(st.graph.Tasks()[1]); len(run) != steps-1 {
		t.Errorf("chain behind member 1 has %d tasks, want %d", len(run), steps-1)
	}

	n, chain, c, _ := st.choose(st.graph.Tasks()[0])
	st.dispatch(n, chain, c)
	if !cold.hasVersion(row.ID(), 0) || !cold.hasVersion(acc.ID(), 0) {
		t.Error("dispatch did not record the inlined payloads as resident at the versions sent")
	}
	if done, err := st.handleResult(<-st.events); done != steps || err != nil {
		t.Fatalf("chain result: done=%d err=%v", done, err)
	}
	if st.ver[acc.ID()] != 0 || cold.stats.Transfers != 2 {
		// okTransport writes nothing back, so the version stays; two payloads went.
		t.Errorf("version %d, %d transfers; want 0 and 2", st.ver[acc.ID()], cold.stats.Transfers)
	}
}

// The PDL prices the master's links: a node anchored to a PU gets the summed
// declared route from MasterPU, a node the platform cannot route to — its PU
// declared but unconnected, or not anchored at all — gets the LAN default, and
// a chain that must carry its operands goes to the node behind the cheaper
// link.
func TestMasterPricesLinksFromThePDL(t *testing.T) {
	// head —(10 GB/s, 5 µs)— switch —(5 GB/s, 15 µs)— near; island apart.
	pl, err := core.NewBuilder("fabric").
		Master("head", core.Arch("x86")).
		Master("switch", core.Arch("x86")).
		Master("near", core.Arch("x86")).
		Master("island", core.Arch("x86")).
		Link(core.ICTypePCIe, "head", "switch", core.Bandwidth(10), core.Latency(5)).
		Link(core.ICTypePCIe, "switch", "near", core.Bandwidth(5), core.Latency(15)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := taskrt.NewCodelet("k", taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Platform: pl, MasterPU: "head", Nodes: []NodeConfig{
		{Name: "island", Addr: "http://island.invalid", PU: "island"},
		{Name: "near", Addr: "http://near.invalid", PU: "near"},
		{Name: "unanchored", Addr: "http://unanchored.invalid"},
	}}
	var row, acc *taskrt.Handle
	st := newRunState(t, cfg, func(rt *taskrt.Runtime) []*taskrt.Task {
		row = rt.NewHandle("row", 8<<20, blas.NewMatrix(2, 2))
		acc = rt.NewHandle("acc", 1<<10, blas.NewMatrix(2, 2))
		batch := make([]*taskrt.Task, 3)
		for i := range batch {
			batch[i] = &taskrt.Task{Codelet: cl, Accesses: []taskrt.Access{taskrt.R(row), taskrt.RW(acc)}, Flops: 1e6}
		}
		return batch
	})

	twoHops := placement.Link{LatNanos: 20e3, NanosPerByte: 1e9/(10*(1<<30)) + 1e9/(5*(1<<30))}
	if routed, ok := placement.RouteLink(pl, "head", "near", lanLink); !ok || routed != twoHops {
		t.Fatalf("RouteLink(head→near) = %+v, %v; want the two hops summed: %+v", routed, ok, twoHops)
	}
	want := map[string]placement.Link{"near": twoHops, "island": lanLink, "unanchored": lanLink}
	for _, n := range st.nodes {
		if n.link != want[n.cfg.Name] {
			t.Errorf("node %s: link %+v, want %+v", n.cfg.Name, n.link, want[n.cfg.Name])
		}
	}

	for _, n := range st.nodes {
		n.alive, n.credits = true, 4
		n.info = InfoResponse{Archs: []string{"x86"}}
	}
	near := st.nodes[1]
	for i := 0; i < 2*len(st.nodes); i++ { // every tie-break start
		n, chain, c, ok := st.choose(st.graph.Tasks()[0])
		if !ok || n != near || len(chain) != 3 {
			t.Fatalf("pick %d: a chain of %d on %v, want all 3 steps on the node two declared hops away", i, len(chain), n)
		}
		if want := twoHops.Nanos(row.Bytes) + twoHops.Nanos(acc.Bytes); c.Xfer != want || c.Xfer >= lanLink.Nanos(row.Bytes) {
			t.Fatalf("pick %d: transfer priced %d ns, want the declared route's %d ns, below the LAN's %d", i, c.Xfer, want, lanLink.Nanos(row.Bytes))
		}
	}
}
