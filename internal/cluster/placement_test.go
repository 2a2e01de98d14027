package cluster

import (
	"encoding/gob"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/taskrt"
)

// okTransport answers every request on an execute stream in process with a
// successful 1 ms kernel: the master's dispatch/ship/stream/handleResult path
// runs for real with no listener behind the node addresses.
type okTransport struct{}

func (okTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	pr, pw := io.Pipe()
	go func() {
		defer r.Body.Close()
		dec, enc := gob.NewDecoder(r.Body), gob.NewEncoder(pw)
		for {
			var req ExecRequest
			err := dec.Decode(&req)
			if err == nil {
				err = enc.Encode(&ExecResponse{TaskID: req.TaskID, Attempt: req.Attempt, OK: true, ExecSeconds: 1e-3, Arch: "x86"})
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
func newRunState(t *testing.T, cfg Config, batch func(*taskrt.Runtime) []*taskrt.Task) *runState {
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
	graph, handles, err := rt.Graph()
	if err != nil {
		t.Fatal(err)
	}
	st := &runState{
		m: m, tasks: graph, handles: handles,
		ver:   make([]uint64, len(handles)),
		indeg: map[int]int{}, attempts: map[int]int{},
		done: map[int]bool{}, inflight: map[int]*inflightRec{},
		events: make(chan event, len(graph)), stop: make(chan struct{}),
		start: time.Now(), retriedTasks: map[int]bool{},
	}
	t.Cleanup(st.shutdown)
	for _, nc := range m.cfg.Nodes {
		st.nodes = append(st.nodes, &nodeState{cfg: nc, has: map[int]uint64{}, link: lanLink})
	}
	return st
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
			n, c, ok := st.choose(task)
			if !ok {
				t.Fatalf("task %d: no node chosen", task.ID())
			}
			if c.Xfer <= 0 {
				t.Fatalf("task %d: inlining a non-resident payload priced at %d ns", task.ID(), c.Xfer)
			}
			before := n.backlog
			st.dispatch(task, n, c)
			if n.backlog-before != c.Charge() {
				t.Fatalf("dispatch charged %d ns, Candidate.Charge is %d", n.backlog-before, c.Charge())
			}
		}
	}

	placeAll(st.tasks[:k-2])
	for i := 0; i < k-2; i++ {
		if done, err := st.handleResult(<-st.events); !done || err != nil {
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
	placeAll(st.tasks[k-2:])
	for _, n := range st.nodes {
		st.nodeDown(n)
		if n.backlog != 0 {
			t.Errorf("node %s after nodeDown: backlog %d ns, want 0", n.cfg.Name, n.backlog)
		}
	}
	if len(st.inflight) != 0 {
		t.Errorf("%d invocations still in flight after every node died", len(st.inflight))
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
			n, c, ok := st.choose(st.tasks[0])
			if !ok || n != st.nodes[1] {
				t.Fatalf("pick %d: chose %v, want the healthy node", i, n)
			}
			if c.Source != placement.Model || c.Exec <= 0 {
				t.Fatalf("pick %d: candidate %+v, want a positive model estimate", i, c)
			}
		}
		// The penalty is charged, not just scored.
		st.nodes[1].alive = false
		_, c, _ := st.choose(st.tasks[0])
		if want := 3*c.Exec + c.Xfer; c.Charge() != want || c.Exec <= 0 {
			t.Fatalf("straggler charge %d, want 3 × exec + xfer = %d", c.Charge(), want)
		}
	})

	t.Run("resident version wins over inlining", func(t *testing.T) {
		st := fakeRun(t, models, []string{"cold", "resident"}, 1)
		h := st.tasks[0].Accesses[0].Handle
		st.nodes[1].has[h.ID()] = st.ver[h.ID()]
		for i := 0; i < 4; i++ {
			n, c, ok := st.choose(st.tasks[0])
			if !ok || n != st.nodes[1] || c.Xfer != 0 {
				t.Fatalf("pick %d: chose %v with xfer %d, want the resident node at 0", i, n, c.Xfer)
			}
		}
		// A stale version is not residency.
		st.ver[h.ID()]++
		_, c, _ := st.choose(st.tasks[0])
		if c.Xfer != lanLink.Nanos(h.Bytes) {
			t.Fatalf("stale version priced at %d ns, want one inlined payload = %d", c.Xfer, lanLink.Nanos(h.Bytes))
		}
	})
}
