package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

// WorkerConfig configures an execution node.
type WorkerConfig struct {
	// Name identifies the node in traces, leases and master bookkeeping.
	Name string
	// Codelets is the executable registry: invocation of an unlisted
	// codelet is an error the master counts against the task, not the node.
	Codelets []*taskrt.Codelet
	// Archs are the architecture tags this node executes, in preference
	// order ("x86" on commodity hosts). An impl is runnable here when its
	// arch is listed and its Func is non-nil.
	Archs []string
	// Slots bounds concurrent executions (default 1): the node-local
	// equivalent of the runtime's worker count.
	Slots int
	// OnObservation, when set, is called after each successful execution
	// (pdlworkerd wires it to POST /platforms/{name}/observe).
	OnObservation func(codelet, arch string, size, seconds float64)
	// Trace, when set, is the trace execution spans are recorded into; the
	// worker builds a private one otherwise. Either way the trace is stamped
	// with node + epoch metadata, spans piggyback on execute responses, and
	// GET /v1/trace serves (or drains) the buffer.
	Trace *trace.Trace
	// Delay is slept before every kernel, inside its measured time: the
	// deterministic gray failure the master's straggler detector is tested
	// against (pdlworkerd -fault-delay). Negative is an error.
	Delay time.Duration
	// MaxBodyBytes bounds each request message on an execute stream (default
	// 256 MiB); the stream itself is as long as the master's run.
	MaxBodyBytes int64
	// CacheEntries bounds the handle cache (default 65536 entries).
	// Eviction is arbitrary: an evicted handle resurfaces as NeedData and
	// the master re-inlines it.
	CacheEntries int
	// TraceCap bounds the span buffer behind GET /v1/trace (default
	// DefaultTraceCap; negative disables the bound). Spans accumulate for
	// the drain pull path, so a worker serving non-tracing masters — or one
	// whose collector died — would otherwise grow without limit. Past the
	// cap the oldest spans are discarded and counted in
	// taskrt_worker_trace_dropped_spans_total.
	TraceCap int
	Logf     func(format string, args ...any)
}

// DefaultTraceCap is the default span-buffer bound: the same 64k events
// (~8 MB) a per-worker shard holds.
const DefaultTraceCap = trace.DefaultShardCapacity

// cacheEntry is the latest locally-held version of a handle.
type cacheEntry struct {
	version uint64
	payload any
	bytes   int64 // the size its AccessSpec declared
	// sent is closed once the response this payload was announced on has been
	// written, from this memory; nil for a payload that arrived.
	sent <-chan struct{}
}

// Worker executes shipped codelet invocations. It is an http.Handler
// provider; pdlworkerd (or an httptest server in tests) owns the listener.
type Worker struct {
	cfg      WorkerConfig
	codelets map[string]*taskrt.Codelet
	slots    chan int // free-list of slot ids, naming trace lanes
	start    time.Time

	tr *trace.Trace // the node trace (cfg.Trace or private)

	met      *workerMetrics
	inflight atomic.Int64

	mu         sync.Mutex
	cache      map[int]cacheEntry
	cacheBytes int64

	// The open execute streams, so Drain can stop each one reading; nil once
	// draining, when new streams are refused.
	streamMu sync.Mutex
	streams  map[*http.ResponseController]struct{}
	streamWG sync.WaitGroup
}

// workerMetrics is the node-local instrument set, in a private registry per
// Worker so multi-worker processes (tests, loopback experiments) never
// collide on registration. Families use the taskrt_worker_ prefix, which is
// what pdlserved's fleet scraper federates.
type workerMetrics struct {
	reg        *metrics.Registry
	executions *metrics.CounterVec   // {codelet, arch}
	failures   *metrics.CounterVec   // {codelet}
	kernel     *metrics.HistogramVec // {codelet}
	needData   *metrics.Counter
	delayed    *metrics.Counter
}

func newWorkerMetrics(w *Worker) *workerMetrics {
	reg := metrics.New()
	m := &workerMetrics{
		reg: reg,
		executions: reg.CounterVec("taskrt_worker_executions_total",
			"Kernels executed to completion on this node.", "codelet", "arch"),
		failures: reg.CounterVec("taskrt_worker_failures_total",
			"Kernel executions that returned an error, by codelet.", "codelet"),
		kernel: reg.HistogramVec("taskrt_worker_kernel_seconds",
			"Kernel execution latency on this node, by codelet.", clusterTaskBuckets, "codelet"),
		needData: reg.Counter("taskrt_worker_needdata_total",
			"Invocations bounced for missing cached payload versions."),
		delayed: reg.Counter("taskrt_worker_injected_delay_seconds_total",
			"Seconds of configured slowdown (Delay) injected into kernels."),
	}
	reg.GaugeFunc("taskrt_worker_inflight_kernels",
		"Invocations currently holding an execution slot.",
		func() float64 { return float64(w.inflight.Load()) })
	reg.GaugeFunc("taskrt_worker_cache_entries",
		"Handles resident in the version-tagged payload cache.",
		func() float64 { entries, _ := w.CacheStats(); return float64(entries) })
	reg.GaugeFunc("taskrt_worker_cached_bytes",
		"Declared bytes of the cached handle payloads.",
		func() float64 { _, bytes := w.CacheStats(); return float64(bytes) })
	reg.GaugeFunc("taskrt_worker_slots",
		"Configured execution parallelism.",
		func() float64 { return float64(w.cfg.Slots) })
	reg.GaugeFunc("taskrt_worker_uptime_seconds",
		"Seconds since the worker process epoch.",
		func() float64 { return time.Since(w.start).Seconds() })
	reg.CounterFunc("taskrt_worker_trace_dropped_spans_total",
		"Spans discarded by the bounded trace buffer before a collector drained them.",
		func() float64 { return float64(w.tr.DroppedTotal()) })
	return m
}

// NewWorker validates the config and builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: worker needs a name")
	}
	if len(cfg.Archs) == 0 {
		return nil, fmt.Errorf("cluster: worker %s needs at least one arch", cfg.Name)
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 65536
	}
	if cfg.Delay < 0 {
		return nil, fmt.Errorf("cluster: worker %s: negative Delay %s", cfg.Name, cfg.Delay)
	}
	w := &Worker{
		cfg:      cfg,
		codelets: map[string]*taskrt.Codelet{},
		slots:    make(chan int, cfg.Slots),
		start:    time.Now(),
		cache:    map[int]cacheEntry{},
		streams:  map[*http.ResponseController]struct{}{},
	}
	for _, c := range cfg.Codelets {
		if _, dup := w.codelets[c.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate codelet %q", c.Name)
		}
		w.codelets[c.Name] = c
	}
	for i := 0; i < cfg.Slots; i++ {
		w.slots <- i
	}
	w.tr = cfg.Trace
	if w.tr == nil {
		w.tr = trace.New()
	}
	switch {
	case cfg.TraceCap > 0:
		w.tr.SetLimit(cfg.TraceCap)
	case cfg.TraceCap == 0:
		w.tr.SetLimit(DefaultTraceCap)
	}
	w.tr.SetMeta(trace.MetaNode, cfg.Name)
	w.tr.SetMeta(trace.MetaEpochMicros, fmt.Sprintf("%d", w.start.UnixMicro()))
	w.met = newWorkerMetrics(w)
	return w, nil
}

// Trace returns the worker's node trace (the one /v1/trace serves).
func (w *Worker) Trace() *trace.Trace { return w.tr }

// CacheStats reports the payload cache's entry count and declared bytes.
func (w *Worker) CacheStats() (entries int, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.cache), w.cacheBytes
}

// Metrics returns the worker's private metric registry (served on /metrics).
func (w *Worker) Metrics() *metrics.Registry { return w.met.reg }

// Info describes the worker for GET /v1/info and lease registration.
func (w *Worker) Info() InfoResponse {
	names := make([]string, 0, len(w.codelets))
	for name, c := range w.codelets {
		if w.runnableImpl(c) != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return InfoResponse{Name: w.cfg.Name, Archs: w.cfg.Archs, Workers: w.cfg.Slots, Codelets: names}
}

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathExecute, w.handleExecute)
	mux.HandleFunc("GET "+PathInfo, func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(w.Info())
	})
	mux.HandleFunc("GET "+PathHealthz, func(rw http.ResponseWriter, r *http.Request) {
		entries, bytes := w.CacheStats()
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(map[string]any{
			"status":           "ok",
			"name":             w.cfg.Name,
			"cache_entries":    entries,
			"cached_bytes":     bytes,
			"inflight_kernels": w.inflight.Load(),
			"open_streams":     w.openStreams(),
			"slots":            w.cfg.Slots,
			"uptime_seconds":   time.Since(w.start).Seconds(),
		})
	})
	mux.HandleFunc("GET "+PathTrace, w.handleTrace)
	mux.HandleFunc("GET "+PathMetrics, func(rw http.ResponseWriter, r *http.Request) {
		metrics.Serve(rw, w.met.reg, metrics.Default)
	})
	return mux
}

// handleTrace serves the node's span buffer, as JSONL unless ?format= says
// otherwise. ?drain=1 atomically hands the buffer over and clears it, so a
// polling collector sees every span exactly once.
func (w *Worker) handleTrace(rw http.ResponseWriter, r *http.Request) {
	src := w.Trace
	if r.URL.Query().Get("drain") == "1" {
		src = w.tr.Drain
	}
	trace.Serve(rw, r, src, trace.FormatJSONL)
}

// Drain is the graceful-shutdown step: it refuses new execute streams, stops
// every open one reading further requests, and returns once each has
// answered the invocations it had already accepted and ended its response. A
// stream never goes idle on its own, so http.Server.Shutdown alone would sit
// out its whole grace period; call Drain first.
func (w *Worker) Drain() {
	w.streamMu.Lock()
	open := w.streams
	w.streams = nil
	w.streamMu.Unlock()
	for rc := range open {
		// An already-due deadline fails the stream's pending (or next) body
		// read, which its handler takes as the end of the requests.
		if err := rc.SetReadDeadline(time.Now()); err != nil {
			w.logf("cluster: worker %s: draining a stream: %v", w.cfg.Name, err)
		}
	}
	w.streamWG.Wait()
}

func (w *Worker) openStreams() int {
	w.streamMu.Lock()
	defer w.streamMu.Unlock()
	return len(w.streams)
}

// runnableImpl picks the first configured arch the codelet implements with
// a real function.
func (w *Worker) runnableImpl(c *taskrt.Codelet) *taskrt.Impl {
	for _, arch := range w.cfg.Archs {
		if im := c.ImplFor(arch); im != nil && im.Func != nil {
			return im
		}
	}
	return nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// streamWindow bounds the invocations one stream may have accepted and not
// yet answered — decoded payloads held while waiting for a slot. Past it the
// stream stops reading and TCP pushes back on the sender.
const streamWindow = 64

// handleExecute serves one execute stream: ExecRequest values are read off the
// request body until it ends, each is admitted — its inline payloads cached,
// its operands resolved — before the next is read, runs as soon as a slot
// frees, and every ExecResponse is written and flushed the moment its chain
// finishes, in completion order. A one-shot POST is the stream of length one.
func (w *Worker) handleExecute(rw http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(rw)
	if err := rc.EnableFullDuplex(); err != nil {
		http.Error(rw, "execute needs a full-duplex connection: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.streamMu.Lock()
	draining := w.streams == nil
	if !draining {
		w.streams[rc] = struct{}{}
		w.streamWG.Add(1)
	}
	w.streamMu.Unlock()
	if draining {
		http.Error(rw, "worker is draining", http.StatusServiceUnavailable)
		return
	}
	defer func() {
		w.streamMu.Lock()
		delete(w.streams, rc)
		w.streamMu.Unlock()
		w.streamWG.Done()
	}()

	rw.Header().Set("Content-Type", ContentTypeGob)
	var (
		reqs    = newMessageReader(r.Body, w.cfg.MaxBodyBytes)
		out     = newMessageWriter(rw)
		outMu   sync.Mutex // one response message on the wire at a time
		window  = make(chan struct{}, streamWindow)
		running sync.WaitGroup
	)
	for first := true; ; first = false {
		window <- struct{}{}
		req, err := nextRequest(reqs)
		if err != nil {
			// The requests stop here and the accepted ones still answer. The
			// connection ending — cleanly, torn, reset, or by Drain's deadline
			// — is the sender's to report; bytes that are not a request, or
			// too many of them, are worth a line here.
			var conn net.Error
			if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.As(err, &conn) {
				w.logf("cluster: worker %s: execute stream from %s: %v", w.cfg.Name, r.RemoteAddr, err)
			}
			break
		}
		if first {
			// The sender learns of a dead connection from the response body,
			// and has that only once the headers are in: they go out with the
			// stream's first request read, not its first answer written.
			// (Not sooner: answering a sender that asked for 100 Continue
			// before reading from it tells it to keep its body.)
			rw.WriteHeader(http.StatusOK)
			if err := rc.Flush(); err != nil {
				break
			}
		}
		inv := w.admit(req)
		running.Add(1)
		go func() {
			defer running.Done()
			defer func() { <-window }()
			resp := w.execute(inv)
			// The frames are written from memory execute has put back in the
			// cache: "Checkout" in the package comment says what keeps it still.
			defer close(inv.sent)
			outMu.Lock()
			defer outMu.Unlock()
			err := out.write(resp, resp.frames)
			if err == nil {
				err = rc.Flush()
			}
			if err != nil {
				w.logf("cluster: worker %s: answering task %d: %v", w.cfg.Name, req.TaskID, err)
			}
		}()
	}
	running.Wait()
}

// nextRequest returns the stream's next request, the payloads that followed it
// read into the objects the cache will hold: io.EOF at a clean end, any other
// error when the bytes are not a request or the message — envelope and frames
// — exceeds the reader's bound.
func nextRequest(rr *messageReader) (*ExecRequest, error) {
	req := new(ExecRequest)
	if err := rr.envelope(req); err != nil {
		return nil, err
	}
	for _, s := range req.steps() {
		for i := range s.Accesses {
			a := &s.Accesses[i]
			if a.FrameLen == 0 {
				continue
			}
			if a.Inline != nil {
				return nil, fmt.Errorf("handle %d (%s) travels twice, inside the envelope and behind it", a.HandleID, a.Name)
			}
			v, err := rr.frame(a.FrameLen)
			if err != nil {
				return nil, fmt.Errorf("handle %d (%s): %w", a.HandleID, a.Name, err)
			}
			req.received = append(req.received, inlinePayload{a, v})
		}
	}
	return req, nil
}

// invocation is an admitted request: every step bound to its implementation
// and its operands, or resp already saying why it cannot run.
type invocation struct {
	resp  *ExecResponse
	steps []boundStep
	// held are the write-mode operands checked out of the cache, in
	// first-write order, each at the version the chain will leave it.
	held []*heldPayload
	// sent is closed once the response is written, or failed to be: nothing
	// reads the payloads it announced any more. The entries execute puts back
	// carry it.
	sent chan struct{}
}

type boundStep struct {
	ExecStep
	cl   *taskrt.Codelet
	im   *taskrt.Impl
	data []any
}

// heldPayload is a cache entry taken out while the chain that writes it runs.
type heldPayload struct {
	id      int
	from    cacheEntry // as it was cached
	version uint64     // after the chain's writes so far
}

// admit binds a request to this worker, on the stream's reader goroutine and
// so in stream order: the payloads that came with it — behind the envelope, or
// inside it and decoded here — enter the cache at their spec version,
// then every operand of every step resolves from the cache — or, at the
// version an earlier step leaves it, from what the chain itself holds — and
// the write-mode ones are checked out of it. A version that is not there
// makes the whole invocation NeedData with nothing taken. Failures that relate
// to the invocation come back in-band (resp.Error); only transport-level
// problems surface as HTTP errors and count against the node on the master.
func (w *Worker) admit(req *ExecRequest) *invocation {
	inv := &invocation{resp: &ExecResponse{TaskID: req.TaskID, Attempt: req.Attempt, Unit: w.cfg.Name}, sent: make(chan struct{})}
	fail := func(k int, format string, args ...any) *invocation {
		inv.resp.FailedStep, inv.resp.Error = k, fmt.Sprintf(format, args...)
		return inv
	}
	steps := req.steps()
	inv.steps = make([]boundStep, len(steps))
	inlines := req.received
	for k, s := range steps {
		cl, ok := w.codelets[s.Codelet]
		if !ok {
			return fail(k, "worker %s has no codelet %q", w.cfg.Name, s.Codelet)
		}
		im := w.runnableImpl(cl)
		if im == nil {
			return fail(k, "worker %s (archs %v) cannot run codelet %q", w.cfg.Name, w.cfg.Archs, s.Codelet)
		}
		inv.steps[k] = boundStep{ExecStep: s, cl: cl, im: im, data: make([]any, len(s.Accesses))}
		for i := range s.Accesses {
			a := &s.Accesses[i]
			if a.Inline == nil {
				continue
			}
			v, err := DecodePayload(a.Inline)
			if err != nil {
				return fail(k, "handle %d (%s): %v", a.HandleID, a.Name, err)
			}
			inlines = append(inlines, inlinePayload{a, v})
			a.Inline = nil // decoded: the frame need not live as long as the invocation
		}
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	for _, in := range inlines {
		w.cacheStoreLocked(in.spec.HandleID, cacheEntry{version: in.spec.Version, payload: in.payload, bytes: in.spec.Bytes})
	}
	for k := range inv.steps {
		s := &inv.steps[k]
		for i, a := range s.Accesses {
			h := inv.holds(a.HandleID)
			switch {
			case h != nil && h.version == a.Version:
				s.data[i] = h.from.payload
			case h != nil:
				inv.resp.NeedData = append(inv.resp.NeedData, a.HandleID)
				continue
			default:
				e, ok := w.cache[a.HandleID]
				if !ok || e.version != a.Version {
					inv.resp.NeedData = append(inv.resp.NeedData, a.HandleID)
					continue
				}
				s.data[i] = e.payload
				if taskrt.AccessMode(a.Mode).Writes() {
					h = &heldPayload{id: a.HandleID, from: e, version: e.version}
					inv.held = append(inv.held, h)
					w.cacheDeleteLocked(a.HandleID)
				}
			}
			if taskrt.AccessMode(a.Mode).Writes() {
				h.version++
			}
		}
	}
	if len(inv.resp.NeedData) > 0 {
		// Nothing ran: what was checked out goes back as it was.
		for _, h := range inv.held {
			w.cacheStoreLocked(h.id, h.from)
		}
		inv.held = nil
		w.met.needData.Inc()
	}
	// The operands are bound, so trimming after them can cost this invocation
	// nothing: one whose payloads all came inline runs whatever the cap.
	w.cacheTrimLocked()
	return inv
}

// holds returns the chain's checked-out copy of the handle, nil when it has
// none. (A chain writes a handful of handles: a scan beats a map.)
func (inv *invocation) holds(id int) *heldPayload {
	for _, h := range inv.held {
		if h.id == id {
			return h
		}
	}
	return nil
}

// execute runs an admitted invocation's steps in order on one slot and
// announces what they wrote, for the response's writer to send from where it
// lies. A failing step ends the chain: what it held stays
// out of the cache, since a kernel may have mutated it in place.
func (w *Worker) execute(inv *invocation) *ExecResponse {
	resp := inv.resp
	if resp.Error != "" || len(resp.NeedData) > 0 {
		return resp
	}
	// A held payload may be what the last response about it was written from.
	// That write is over ("Checkout" in the package comment), so this costs
	// nothing: it makes an order inferred from the protocol one that is enforced.
	for _, h := range inv.held {
		if h.from.sent != nil {
			<-h.from.sent
		}
	}
	slot := <-w.slots
	defer func() { w.slots <- slot }()
	resp.Unit = fmt.Sprintf("worker%d", slot)
	resp.EpochMicros = w.start.UnixMicro()
	w.inflight.Add(1)
	defer w.inflight.Add(-1)

	for k := range inv.steps {
		s := &inv.steps[k]
		// The synthetic task carries what kernels may consult (label, flops);
		// identity fields stay zero — handle identity lives in the AccessSpec.
		tc := &taskrt.TaskContext{
			WorkerID: slot,
			Arch:     s.im.Arch,
			Data:     s.data,
			Task:     &taskrt.Task{Codelet: s.cl, Flops: s.Flops, Label: s.Label},
		}
		begin := time.Now()
		// Inside the measured window, so that everything downstream of it —
		// reported seconds, span, model observations — sees a slower node.
		if d := w.cfg.Delay; d > 0 {
			w.met.delayed.Add(d.Seconds())
			time.Sleep(d)
		}
		err := s.im.Func(tc)
		elapsed := time.Since(begin)
		w.recordSpan(resp, &s.ExecStep, slot, begin, elapsed, err == nil)
		w.met.kernel.With(s.Codelet).Observe(elapsed.Seconds())
		if err != nil {
			w.met.failures.With(s.Codelet).Inc()
			resp.FailedStep, resp.Error = k, err.Error()
			return resp
		}
		resp.Ran = append(resp.Ran, StepRun{Seconds: elapsed.Seconds(), Arch: s.im.Arch})
		w.met.executions.With(s.Codelet, s.im.Arch).Inc()
		if s.Flops > 0 && w.cfg.OnObservation != nil {
			w.cfg.OnObservation(s.Codelet, s.im.Arch, s.Flops, elapsed.Seconds())
		}
	}

	for _, h := range inv.held {
		frame, n, err := announce(h.from.payload)
		if err != nil {
			resp.FailedStep, resp.Error = len(inv.steps)-1, fmt.Sprintf("handle %d: %v", h.id, err)
			resp.Written, resp.frames = nil, nil
			return resp
		}
		resp.Written = append(resp.Written, Written{HandleID: h.id, Version: h.version, FrameLen: n})
		resp.frames = append(resp.frames, frame)
	}
	// Every step succeeded: what the chain wrote is valid here at the version
	// the master will assign on apply.
	w.mu.Lock()
	for _, h := range inv.held {
		w.cacheStoreLocked(h.id, cacheEntry{version: h.version, payload: h.from.payload, bytes: h.from.bytes, sent: inv.sent})
	}
	w.cacheTrimLocked()
	w.mu.Unlock()
	resp.OK = true
	return resp
}

// cacheStoreLocked inserts or replaces an entry, keeping the declared-bytes
// accounting the /healthz and /metrics surfaces report.
func (w *Worker) cacheStoreLocked(id int, e cacheEntry) {
	if old, exists := w.cache[id]; exists {
		w.cacheBytes -= old.bytes
	}
	w.cache[id] = e
	w.cacheBytes += e.bytes
}

// cacheTrimLocked evicts arbitrarily down to the entry cap; misses self-heal
// via NeedData.
func (w *Worker) cacheTrimLocked() {
	for victim := range w.cache {
		if len(w.cache) <= w.cfg.CacheEntries {
			return
		}
		w.cacheDeleteLocked(victim)
	}
}

// cacheDeleteLocked removes an entry, keeping the byte accounting honest.
func (w *Worker) cacheDeleteLocked(id int) {
	if e, exists := w.cache[id]; exists {
		w.cacheBytes -= e.bytes
		delete(w.cache, id)
	}
}

// recordSpan writes a step's execution span into the node trace (so /v1/trace
// readers see it immediately; the trace enforces TraceCap) and piggybacks it
// on the response — the push half of distributed trace propagation.
func (w *Worker) recordSpan(resp *ExecResponse, step *ExecStep, slot int, begin time.Time, elapsed time.Duration, ok bool) {
	kind := trace.Task
	if !ok {
		kind = trace.Failure
	}
	start := begin.Sub(w.start).Seconds()
	e := trace.Event{
		Kind:      kind,
		Unit:      resp.Unit,
		Node:      w.cfg.Name,
		Label:     step.Label,
		TaskID:    step.TaskID,
		ParentIDs: step.Parents,
		Attempt:   step.Attempt,
		Worker:    slot,
		Start:     start,
		End:       start + elapsed.Seconds(),
	}
	w.tr.Record(e)
	resp.Spans = append(resp.Spans, e)
}
