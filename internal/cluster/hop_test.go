package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/taskrt"
)

// --- a tile's way down and back ---

const hopTile = 128

// tileHops is a run of k independent tasks, each read-writing its own 128×128
// tile — a strided view of one parent, as a tiled GEMM's are — on one worker
// reached over an in-memory duplex. hop(i) sends tile i down and brings it
// back: dispatch, a kernel that adds one to the tile's first element, the
// result, its application. stop ends the run.
func tileHops(tb testing.TB, k int) (hop func(i int), stop func()) {
	tb.Helper()
	cl, err := taskrt.NewCodelet("bump", taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
		tc.Payload(0).(*blas.Matrix).Data[0]++
		return nil
	}})
	if err != nil {
		tb.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{Name: "hop", Archs: []string{"x86"}, Codelets: []*taskrt.Codelet{cl}})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{Nodes: []NodeConfig{{Name: "hop", Addr: "http://hop.invalid"}}, MaxInflight: 1,
		HTTP: &http.Client{Transport: duplexTransport{w.Handler()}}}
	parent := blas.NewMatrix(hopTile, hopTile*k)
	st := buildRunState(tb, cfg, func(rt *taskrt.Runtime) []*taskrt.Task {
		batch := make([]*taskrt.Task, k)
		for i := range batch {
			h := rt.NewHandle(fmt.Sprintf("tile%d", i), 8*hopTile*hopTile, parent.Sub(0, i*hopTile, hopTile, hopTile))
			batch[i] = &taskrt.Task{Codelet: cl, Accesses: []taskrt.Access{taskrt.RW(h)}}
		}
		return batch
	})
	st.nodeUp(st.nodes[0], w.Info())
	hop = func(i int) {
		placeHead(tb, st, st.graph.Tasks()[i])
		ev := nextResult(tb, st)
		if done, err := st.handleResult(ev); done != 1 || err != nil {
			tb.Fatalf("hop %d: done=%d err=%v (transport: %v)", i, done, err, ev.err)
		}
		if got := parent.Data[i*hopTile]; got != 1 {
			tb.Fatalf("hop %d: the tile came back with %g in its corner, want 1", i, got)
		}
	}
	return hop, st.shutdown
}

// largeAllocs is how many heap objects over 32 KiB the process has allocated:
// a tile is 128 KiB, and so is every copy of one.
func largeAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	metrics.Read(s)
	h := s[0].Value.Float64Histogram()
	return h.Counts[len(h.Counts)-1]
}

// A tile goes down and comes back at the cost of one tile-sized allocation:
// the matrix the worker reads it into and then caches. The master gathers the
// view into its stream's scratch and stages the returned frame in a pooled
// buffer; the worker writes the answer from the matrix. (Six at the parent of
// this test: a frame, gob's message buffer and gob's []byte each way.)
func TestTileHopAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	// The staging pool keeps a buffer per P, each allocated once, and a
	// collection empties it: neither is a cost of the hop.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warm, hops = 4, 16
	hop, stop := tileHops(t, warm+hops)
	defer stop()
	for i := 0; i < warm; i++ {
		hop(i)
	}
	before := largeAllocs()
	for i := warm; i < warm+hops; i++ {
		hop(i)
	}
	if n := largeAllocs() - before; n > hops {
		t.Errorf("%d tile hops made %d allocations over 32 KiB, want one each: the worker's matrix", hops, n)
	}
}

// BenchmarkTileHop is the per-layer number for the cluster link with no socket
// under it: ns, bytes and allocations per 128×128 tile down and back.
func BenchmarkTileHop(b *testing.B) {
	const batch = 64
	b.ReportAllocs()
	b.SetBytes(2 * (matrixHeader + 8*hopTile*hopTile))
	for done := 0; done < b.N; done += batch {
		b.StopTimer()
		hop, stop := tileHops(b, batch)
		b.StartTimer()
		for i := 0; i < batch && done+i < b.N; i++ {
			hop(i)
		}
		b.StopTimer()
		stop()
		b.StartTimer()
	}
}

// --- the two hazards of not copying ---

// tearTransport cuts the execute stream's response body part-way through the
// first returned frame it sees: the envelope and half the frame arrive, then
// the connection is gone.
type tearTransport struct{ torn *atomic.Bool }

func (tt tearTransport) RoundTrip(r *http.Request) (*http.Response, error) {
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
			if err == nil && len(msg.Written) > 0 && tt.torn.CompareAndSwap(false, true) {
				frame, _ := EncodePayload(msg.Written[0].payload)
				out.write(msg, []any{rawFrame(frame[:len(frame)/2])})
				err = errors.New("torn by the test")
			}
			if err == nil {
				err = out.write(msg, returnedFrames(msg))
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

// A chain's writes reach the handle's storage only when its result is applied.
// A response torn inside a returned frame is a transport error like any other:
// the canonical bytes are bit for bit what they were, the chain runs again
// from them and lands once.
func TestTornReturnLeavesCanonicalBytes(t *testing.T) {
	cl, err := taskrt.NewCodelet("fill", taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
		m := tc.Payload(0).(*blas.Matrix)
		for i := range m.Data {
			m.Data[i] += 1000
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	w, srv := startWorker(t, "torn", cl, WorkerConfig{})
	var torn atomic.Bool
	parent := blas.NewMatrix(64, 64)
	parent.FillRandom(5)
	cell := parent.Sub(8, 8, 32, 32) // a view: a frame read straight into it would go in row by row
	cfg := Config{Nodes: []NodeConfig{{Name: "torn", Addr: srv.URL}}, BackoffBase: time.Millisecond, BackoffCap: time.Millisecond,
		Logf: t.Logf, HTTP: &http.Client{Transport: tearTransport{&torn}}}
	st := newRunState(t, cfg, cellChain(cl, cell, 3))
	n := st.nodes[0]
	st.nodeUp(n, w.Info())
	before := append([]float64(nil), parent.Data...)

	placeHead(t, st, st.graph.Tasks()[0])
	ev := nextResult(t, st)
	if ev.err == nil || !torn.Load() {
		t.Fatalf("outcome of the torn response: resp=%+v err=%v, want a transport error", ev.resp, ev.err)
	}
	same := func(when string) {
		t.Helper()
		for i, v := range parent.Data {
			if v != before[i] {
				t.Fatalf("%s: element %d of the parent is %g, was %g: a returned frame reached canonical storage before its result applied", when, i, v, before[i])
			}
		}
	}
	same("after the tear")
	if done, err := st.handleResult(ev); done != 0 || err != nil {
		t.Fatalf("handling the tear: done=%d err=%v", done, err)
	}
	same("after handling the tear")
	if st.ver[0] != 0 || st.doneCount() != 0 {
		t.Fatalf("after the tear: version %d, %d tasks done; want nothing applied", st.ver[0], st.doneCount())
	}

	// The retry: by reference first (the worker holds the chain's output, not
	// the version the master names), then with the master's bytes.
	for done, deadline := 0, time.Now().Add(5*time.Second); done < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 steps reran", done)
		}
		st.dispatchReady() // the requeue comes back on its backoff timer
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
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			at := (8+i)*64 + 8 + j
			if got, want := parent.Data[at], before[at]+1000+1000+1000; got != want {
				t.Fatalf("cell[%d,%d] = %g after the rerun, want %g: each step once", i, j, got, want)
			}
			before[at] = parent.Data[at]
		}
	}
	same("outside the cell")
}

// The worker writes a response frame from the memory of an object it has
// already put back in its cache. Here the next writer of the same handle is
// dispatched the instant each result applies, by reference, to the same node,
// and checks that object out: under -race any overlap between its kernel's
// writes and the response writer's reads is a reported race, and a torn value
// fails the count.
func TestSuccessorChecksOutWhatTheResponseWasWrittenFrom(t *testing.T) {
	const steps, side = 200, 64
	cl, err := taskrt.NewCodelet("inc", taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
		if len(tc.Data) == 0 {
			return nil
		}
		m := tc.Payload(0).(*blas.Matrix)
		for i := range m.Data {
			m.Data[i]++
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
	cell := blas.NewMatrix(side, side)
	h := rt.NewHandle("cell", 8*side*side, cell)
	var batch []*taskrt.Task
	for i := 0; i < steps; i++ {
		// The side task gives each writer a second dependent, so the writers are
		// separate invocations, each ready when the one before it applies.
		write := &taskrt.Task{Codelet: cl, Accesses: []taskrt.Access{taskrt.RW(h)}, Label: fmt.Sprint(i)}
		batch = append(batch, write, &taskrt.Task{Codelet: cl, After: []*taskrt.Task{write}})
	}
	if err := rt.SubmitBatch(batch); err != nil {
		t.Fatal(err)
	}
	rep, err := fastMaster(t, []NodeConfig{{Name: "solo", Addr: srv.URL}}, nil).Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	// (The last writer and its side task are a chain of two.)
	if rep.Invocations != 2*steps-1 || rep.Returns != steps || rep.Transfers != 1 {
		t.Fatalf("%d invocations, %d returns, %d transfers; want every writer its own invocation, answered once, the cell sent once",
			rep.Invocations, rep.Returns, rep.Transfers)
	}
	for i, v := range cell.Data {
		if v != steps {
			t.Fatalf("element %d = %g after %d increments", i, v, steps)
		}
	}
}

// --- what a node may announce ---

// liarTransport is a node that answers every request OK and announces, for
// the request's first access, whatever written says — the frame bytes behind
// it are zeros, as many as announced up to a page.
type liarTransport struct {
	written func(a AccessSpec) Written
}

func (lt liarTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	pr, pw := io.Pipe()
	go func() {
		defer r.Body.Close()
		in, out := newMessageReader(r.Body, 1<<30), newMessageWriter(pw)
		for {
			req, err := nextRequest(in)
			if err == nil {
				wr := lt.written(req.Accesses[0])
				err = out.write(&ExecResponse{TaskID: req.TaskID, Attempt: req.Attempt, OK: true, Ran: []StepRun{{Seconds: 1e-3, Arch: "x86"}},
					Written: []Written{wr}}, []any{rawFrame(make([]byte, max(0, min(wr.FrameLen, 4096))))})
			}
			if err != nil {
				pw.Close()
				return
			}
		}
	}()
	return &http.Response{StatusCode: http.StatusOK, Body: pr, Request: r}, nil
}

// The master sizes nothing on a node's say-so: a returned frame for a handle
// that does not exist, that the answered chain does not write, or of a length
// other than the handle's canonical payload frames to fails the stream with an
// error that says which, before a byte of the frame is read or a buffer made
// for it.
func TestReturnedFrameIsCheckedBeforeItIsRead(t *testing.T) {
	cl, err := taskrt.NewCodelet("k", taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	const frame = matrixHeader + 8*2*2
	for name, tc := range map[string]struct {
		written func(AccessSpec) Written
		want    string
	}{
		"unknown handle":   {func(a AccessSpec) Written { return Written{HandleID: 99, Version: 1, FrameLen: frame} }, "unknown handle 99"},
		"negative handle":  {func(a AccessSpec) Written { return Written{HandleID: -1, Version: 1, FrameLen: frame} }, "unknown handle -1"},
		"a handle it read": {func(a AccessSpec) Written { return Written{HandleID: 0, Version: 1, FrameLen: frame} }, "does not write"},
		"over-long frame": {func(a AccessSpec) Written {
			return Written{HandleID: 1, Version: 1, FrameLen: 1 << 40}
		}, "announces 1099511627776 bytes for handle 1, whose payload frames to 49"},
		"short frame":    {func(a AccessSpec) Written { return Written{HandleID: 1, Version: 1, FrameLen: frame - 8} }, "announces 41 bytes"},
		"no frame":       {func(a AccessSpec) Written { return Written{HandleID: 1, Version: 1} }, "announces 0 bytes"},
		"negative frame": {func(a AccessSpec) Written { return Written{HandleID: 1, Version: 1, FrameLen: -5} }, "announces -5 bytes"},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Nodes: []NodeConfig{{Name: "liar", Addr: "http://liar.invalid"}},
				HTTP: &http.Client{Transport: liarTransport{tc.written}}}
			st := newRunState(t, cfg, func(rt *taskrt.Runtime) []*taskrt.Task {
				read := rt.NewHandle("read", 32, blas.NewMatrix(2, 2))
				written := rt.NewHandle("written", 32, blas.NewMatrix(2, 2))
				return []*taskrt.Task{{Codelet: cl, Accesses: []taskrt.Access{taskrt.R(read), taskrt.RW(written)}}}
			})
			n := st.nodes[0]
			n.alive, n.credits, n.info = true, 1, InfoResponse{Archs: []string{"x86"}}
			before := largeAllocs()
			placeHead(t, st, st.graph.Tasks()[0])
			ev := nextResult(t, st)
			if ev.err == nil || !strings.Contains(ev.err.Error(), tc.want) {
				t.Fatalf("outcome resp=%+v err=%v, want the stream failed by an error containing %q", ev.resp, ev.err, tc.want)
			}
			if n := largeAllocs() - before; n != 0 && !raceEnabled {
				t.Errorf("%d allocations over 32 KiB on the node's say-so", n)
			}
		})
	}
}
