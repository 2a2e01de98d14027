package cluster

import (
	"encoding/gob"
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
	"repro/internal/perfmodel"
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
	// Models, when set, records one observation per execution — the live
	// perfmodel the node streams to pdlserved and serves to masters.
	Models *perfmodel.Store
	// OnObservation, when set, is called after each successful execution
	// (pdlworkerd wires it to POST /platforms/{name}/observe).
	OnObservation func(codelet, arch string, size, seconds float64)
	// Trace, when set, is the trace execution spans are recorded into; the
	// worker builds a private one otherwise. Either way the trace is stamped
	// with node + epoch metadata, spans piggyback on execute responses, and
	// GET /v1/trace serves (or drains) the buffer.
	Trace *trace.Trace
	// Faults, when set, is a slowdown-injection plan: Delay events whose
	// Unit matches Name add their Delay seconds to every (gated) kernel —
	// the deterministic gray failure the master's straggler detector is
	// tested against. Failure events in the plan are ignored here.
	Faults *taskrt.FaultPlan
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
	bytes   int64 // encoded size when it arrived inline (0 for local stores)
}

// Worker executes shipped codelet invocations. It is an http.Handler
// provider; pdlworkerd (or an httptest server in tests) owns the listener.
type Worker struct {
	cfg      WorkerConfig
	codelets map[string]*taskrt.Codelet
	slots    chan int // free-list of slot ids, naming trace lanes
	start    time.Time

	// tr is the node trace (cfg.Trace or private); shards are the per-slot
	// lock-free span buffers feeding it. A shard is only touched while its
	// slot is held, preserving the single-producer invariant.
	tr     *trace.Trace
	shards []*trace.Shard
	delays []taskrt.FaultEvent

	met       *workerMetrics
	inflight  atomic.Int64
	execCount atomic.Int64

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
			"Seconds of fault-plan slowdown injected into kernels."),
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
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	w := &Worker{
		cfg:      cfg,
		codelets: map[string]*taskrt.Codelet{},
		slots:    make(chan int, cfg.Slots),
		start:    time.Now(),
		cache:    map[int]cacheEntry{},
		delays:   cfg.Faults.DelaysForUnit(cfg.Name),
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
	w.shards = make([]*trace.Shard, cfg.Slots)
	for i := range w.shards {
		w.shards[i] = w.tr.NewShard(0)
	}
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
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.met.reg.WritePrometheus(rw)
		metrics.Default.WritePrometheus(rw)
	})
	return mux
}

// handleTrace serves the node's span buffer as JSONL. ?drain=1 atomically
// hands the buffer over and clears it, so a polling collector sees every
// span exactly once.
func (w *Worker) handleTrace(rw http.ResponseWriter, r *http.Request) {
	tr := w.tr
	if r.URL.Query().Get("drain") == "1" {
		tr = w.tr.Drain()
	}
	rw.Header().Set("Content-Type", "application/jsonl")
	if err := tr.WriteJSONL(rw); err != nil {
		w.logf("cluster: worker %s: writing trace: %v", w.cfg.Name, err)
	}
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
// request body until it ends, each runs as soon as a slot frees, and every
// ExecResponse is written and flushed the moment its kernel finishes, in
// completion order. A one-shot POST is the stream of length one.
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
		reqs    = newRequestReader(r.Body, w.cfg.MaxBodyBytes)
		enc     = gob.NewEncoder(rw)
		encMu   sync.Mutex // one response message on the wire at a time
		window  = make(chan struct{}, streamWindow)
		running sync.WaitGroup
	)
	for first := true; ; first = false {
		window <- struct{}{}
		req, err := reqs.next()
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
		running.Add(1)
		go func() {
			defer running.Done()
			defer func() { <-window }()
			resp := w.execute(req)
			encMu.Lock()
			defer encMu.Unlock()
			err := enc.Encode(resp)
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

// requestReader reads the ExecRequest messages of one stream, holding each to
// the worker's message bound.
type requestReader struct {
	dec *gob.Decoder
	lim *limitReader
}

func newRequestReader(r io.Reader, max int64) *requestReader {
	lim := &limitReader{r: r, max: max}
	return &requestReader{dec: gob.NewDecoder(lim), lim: lim}
}

// next returns the stream's next request: io.EOF at a clean end, any other
// error when the bytes are not a request or exceed the bound.
func (rr *requestReader) next() (*ExecRequest, error) {
	rr.lim.left = rr.lim.max
	req := new(ExecRequest)
	if err := rr.dec.Decode(req); err != nil {
		return nil, err
	}
	return req, nil
}

// limitReader fails reads past left bytes. Unlike io.LimitedReader its budget
// is refilled to max (per message), and it is an io.ByteReader so that gob
// reads through it directly: a bufio layer in between would read ahead into
// the next message on this one's budget.
type limitReader struct {
	r         io.Reader
	max, left int64
	one       [1]byte
}

var errMessageTooLarge = errors.New("request message exceeds the worker's MaxBodyBytes")

func (l *limitReader) Read(p []byte) (int, error) {
	if l.left <= 0 {
		return 0, errMessageTooLarge
	}
	if int64(len(p)) > l.left {
		p = p[:l.left]
	}
	n, err := l.r.Read(p)
	l.left -= int64(n)
	return n, err
}

func (l *limitReader) ReadByte() (byte, error) {
	_, err := io.ReadFull(l, l.one[:])
	return l.one[0], err
}

// execute resolves payloads, runs the kernel on a free slot and packages
// written payloads. All failures that relate to the invocation itself come
// back OK=false in-band; only transport-level problems surface as HTTP
// errors (and count against the node on the master).
func (w *Worker) execute(req *ExecRequest) *ExecResponse {
	resp := &ExecResponse{TaskID: req.TaskID, Attempt: req.Attempt, Unit: w.cfg.Name}
	cl, ok := w.codelets[req.Codelet]
	if !ok {
		resp.Error = fmt.Sprintf("worker %s has no codelet %q", w.cfg.Name, req.Codelet)
		return resp
	}
	im := w.runnableImpl(cl)
	if im == nil {
		resp.Error = fmt.Sprintf("worker %s (archs %v) cannot run codelet %q", w.cfg.Name, w.cfg.Archs, req.Codelet)
		return resp
	}

	// Resolve payloads: inline data enters the cache at its spec version;
	// references must hit the cache exactly, else the master re-inlines.
	payloads := make([]any, len(req.Accesses))
	w.mu.Lock()
	for i, a := range req.Accesses {
		if a.Inline != nil {
			continue
		}
		e, ok := w.cache[a.HandleID]
		if !ok || e.version != a.Version {
			resp.NeedData = append(resp.NeedData, a.HandleID)
			continue
		}
		payloads[i] = e.payload
	}
	w.mu.Unlock()
	if len(resp.NeedData) > 0 {
		w.met.needData.Inc()
		return resp
	}
	for i, a := range req.Accesses {
		if a.Inline == nil {
			continue
		}
		v, err := DecodePayload(a.Inline)
		if err != nil {
			resp.Error = fmt.Sprintf("handle %d (%s): %v", a.HandleID, a.Name, err)
			return resp
		}
		payloads[i] = v
	}

	slot := <-w.slots
	defer func() { w.slots <- slot }()
	resp.Unit = fmt.Sprintf("worker%d", slot)
	resp.Arch = im.Arch
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	nth := w.execCount.Add(1)

	// The synthetic task carries what kernels may consult (label, flops);
	// identity fields stay zero — handle identity lives in the AccessSpec.
	tc := &taskrt.TaskContext{
		WorkerID: slot,
		Arch:     im.Arch,
		Data:     payloads,
		Task:     &taskrt.Task{Codelet: cl, Flops: req.Flops, Label: req.Label},
	}
	begin := time.Now()
	// Injected slowdown sleeps inside the measured window, so the delay
	// inflates ExecSeconds, the recorded span and every model observation —
	// indistinguishable from a genuinely slow node, which is the point.
	if d := w.injectedDelay(int(nth)); d > 0 {
		w.met.delayed.Add(d.Seconds())
		time.Sleep(d)
	}
	err := im.Func(tc)
	elapsed := time.Since(begin)
	w.recordSpan(resp, req, slot, begin, elapsed, err == nil)
	w.met.kernel.With(req.Codelet).Observe(elapsed.Seconds())
	if err != nil {
		// The kernel may have partially mutated write-mode payloads in
		// place before failing. A cache-resident one would survive still
		// tagged with its pre-write version and feed the retry corrupted
		// data, so drop every written handle; the master re-inlines
		// canonical bytes on the next attempt.
		w.mu.Lock()
		for _, a := range req.Accesses {
			if taskrt.AccessMode(a.Mode).Writes() {
				w.cacheDeleteLocked(a.HandleID)
			}
		}
		w.mu.Unlock()
		w.met.failures.With(req.Codelet).Inc()
		resp.Error = err.Error()
		return resp
	}
	resp.ExecSeconds = elapsed.Seconds()
	w.met.executions.With(req.Codelet, im.Arch).Inc()

	// Cache contents now valid here: reads at their spec version, writes at
	// the successor version (the task graph serialises writers, so
	// reqVersion+1 is the version the master will assign on apply).
	w.mu.Lock()
	for i, a := range req.Accesses {
		mode := taskrt.AccessMode(a.Mode)
		ver := a.Version
		if mode.Writes() {
			ver++
		}
		w.cacheStoreLocked(a.HandleID, ver, payloads[i], a.Bytes)
	}
	w.mu.Unlock()
	for i, a := range req.Accesses {
		if !taskrt.AccessMode(a.Mode).Writes() {
			continue
		}
		data, err := EncodePayload(payloads[i])
		if err != nil {
			resp.Error = fmt.Sprintf("handle %d (%s): %v", a.HandleID, a.Name, err)
			return resp
		}
		resp.Written = append(resp.Written, Written{HandleID: a.HandleID, Version: a.Version + 1, Payload: data})
	}
	resp.OK = true

	if req.Flops > 0 {
		if w.cfg.Models != nil {
			if err := w.cfg.Models.Model(req.Codelet, im.Arch).Record(req.Flops, elapsed.Seconds()); err != nil {
				w.logf("cluster: worker %s: recording observation: %v", w.cfg.Name, err)
			}
		}
		if w.cfg.OnObservation != nil {
			w.cfg.OnObservation(req.Codelet, im.Arch, req.Flops, elapsed.Seconds())
		}
	}
	return resp
}

// cacheStoreLocked inserts under the entry cap, evicting arbitrarily when
// full (misses self-heal via NeedData), and keeps the declared-bytes
// accounting the /healthz and /metrics surfaces report.
func (w *Worker) cacheStoreLocked(id int, ver uint64, payload any, bytes int64) {
	if _, exists := w.cache[id]; !exists && len(w.cache) >= w.cfg.CacheEntries {
		for victim := range w.cache {
			w.cacheDeleteLocked(victim)
			break
		}
	}
	if old, exists := w.cache[id]; exists {
		w.cacheBytes -= old.bytes
	}
	w.cache[id] = cacheEntry{version: ver, payload: payload, bytes: bytes}
	w.cacheBytes += bytes
}

// cacheDeleteLocked removes an entry, keeping the byte accounting honest.
func (w *Worker) cacheDeleteLocked(id int) {
	if e, exists := w.cache[id]; exists {
		w.cacheBytes -= e.bytes
		delete(w.cache, id)
	}
}

// injectedDelay sums the fault plan's active slowdowns for this execution
// (nth is 1-based): ungated delays always apply, AtTime gates open that many
// seconds after process start, AfterTasks gates from the Nth execution on.
func (w *Worker) injectedDelay(nth int) time.Duration {
	total := 0.0
	for _, f := range w.delays {
		switch {
		case f.AfterTasks > 0 && nth < f.AfterTasks:
			continue
		case f.AtTime > 0 && time.Since(w.start).Seconds() < f.AtTime:
			continue
		}
		total += f.Delay
	}
	return time.Duration(total * float64(time.Second))
}

// recordSpan writes the execution span into the slot's shard, flushes it to
// the node trace (so /v1/trace readers see it immediately) and piggybacks it
// on the response — the push half of distributed trace propagation. The
// shard is owned by the held slot, so Record never contends.
func (w *Worker) recordSpan(resp *ExecResponse, req *ExecRequest, slot int, begin time.Time, elapsed time.Duration, ok bool) {
	kind := trace.Task
	if !ok {
		kind = trace.Failure
	}
	start := begin.Sub(w.start).Seconds()
	e := trace.Event{
		Kind:      kind,
		Unit:      resp.Unit,
		Node:      w.cfg.Name,
		Label:     req.Label,
		TaskID:    req.TaskID,
		ParentIDs: req.Parents,
		Attempt:   req.Attempt,
		Worker:    slot,
		Start:     start,
		End:       start + elapsed.Seconds(),
	}
	w.shards[slot].Record(e)
	w.shards[slot].Flush()
	resp.Spans = append(resp.Spans, e)
	resp.EpochMicros = w.start.UnixMicro()
}
