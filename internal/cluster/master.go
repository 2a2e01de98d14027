package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/blas"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

// NodeConfig describes one execution node to the master.
type NodeConfig struct {
	// Name labels the node in traces, metrics and reports.
	Name string
	// Addr is the worker's base URL (http://host:port).
	Addr string
	// PU optionally anchors the node to a processing unit in
	// Config.Platform, so transfer costs follow the declared interconnect
	// route from MasterPU instead of the generic defaults.
	PU string
}

// Config wires a Master.
type Config struct {
	// Nodes lists the execution nodes. Archs, parallelism and runnable
	// codelets are probed from each node's /v1/info.
	Nodes []NodeConfig
	// Platform, with MasterPU and per-node PU set, prices master→node
	// transfers over the declared interconnect route (the paper's explicit
	// data-transfer paths); absent routes use defaults for a LAN hop.
	Platform *core.Platform
	MasterPU string
	// Models holds per-(codelet, arch) performance history for EFT
	// placement; a fresh store when nil (placement warms up via fallback
	// means). Workers feed their own observations back in each response,
	// so the store converges during a run.
	Models *perfmodel.Store
	// MaxInflight bounds outstanding invocations per node: the node-level
	// generalisation of the dispatcher's credit semaphore. Default
	// 2×(node workers), so each node always has the next wave queued.
	MaxInflight int
	// MaxAttempts bounds executions per task (in-band failures only;
	// transport errors and cache misses do not consume attempts). Default 5.
	MaxAttempts int
	// Heartbeat parameters: probe cadence and per-probe timeout; heartbeatMisses
	// consecutive misses declare the node dead.
	HeartbeatEvery   time.Duration // default 250ms
	HeartbeatTimeout time.Duration // default = HeartbeatEvery
	// Retry backoff: BackoffBase after a task's first failed attempt, doubled
	// per further one, capped at BackoffCap (taskrt.Backoff). Defaults 25ms /
	// 1s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// AllDeadTimeout aborts the run after every node has been dead this
	// long with work outstanding. Default 30s.
	AllDeadTimeout time.Duration
	// ExecTimeout bounds one invocation, from its hand-off to the node's
	// stream to its response: past it that invocation alone fails with a
	// transport error, its neighbours on the stream carry on. Default 2m.
	ExecTimeout time.Duration
	// Trace, when set, records master-side spans (placements, transfers,
	// retries, node state changes) stamped Node=masterName. Worker-side kernel
	// spans arriving on execute responses are kept in per-(node, epoch)
	// traces and merged with it for publishing and the final Report.Trace.
	Trace *trace.Trace
	// HTTP is the data-plane client, which holds one streaming POST per node
	// open for the whole run — so it must not set a Timeout. Default: a
	// dedicated client (ExecTimeout bounds each invocation). The heartbeat's
	// probes go over its Transport too, each bounded by HeartbeatTimeout.
	HTTP *http.Client
	Logf func(format string, args ...any)
}

// NodeStats aggregates one node's contribution to a run.
type NodeStats struct {
	Name          string
	Tasks         int
	Invocations   int     // requests dispatched to the node, each a chain of one or more tasks
	BusySeconds   float64 // summed kernel seconds reported by the node
	Transfers     int     // payloads inlined (cache misses by version)
	TransferBytes int64   // encoded bytes shipped
	Returns       int     // written payloads the node sent back and the master applied
	ReturnBytes   int64   // their encoded bytes
	Retries       int     // in-band failures requeued
	Resubmits     int     // member tasks of the chains reassigned after this node died
	NeedData      int     // dispatches bounced for missing cached data
	Stragglers    int     // tasks flagged by the latency-anomaly detector
	Slowdown      float64 // final EWMA of observed/estimated latency (0 = no data)
	Dead          bool    // dead when the run ended
}

// Report is the outcome of Master.Run.
type Report struct {
	Tasks           int
	MakespanSeconds float64
	PerNode         []NodeStats
	FailedAttempts  int
	RetriedTasks    int
	Resubmissions   int // member tasks of the chains lost to dead nodes
	Invocations     int
	Transfers       int
	TransferBytes   int64
	Returns         int
	ReturnBytes     int64
	DeadNodes       []string
	Stragglers      int
	// Trace is the merged cluster timeline (master spans + worker kernel
	// spans, epoch-aligned), when the master was configured with a Trace.
	Trace *trace.Trace
}

// String renders a human-readable summary, in the shape of taskrt.Report.
func (r *Report) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "mode=cluster sched=eft tasks=%d invocations=%d makespan=%.6fs transfers=%d (%.1f MB) returns=%d (%.1f MB)",
		r.Tasks, r.Invocations, r.MakespanSeconds, r.Transfers, float64(r.TransferBytes)/(1<<20),
		r.Returns, float64(r.ReturnBytes)/(1<<20))
	if r.FailedAttempts > 0 || r.Resubmissions > 0 || len(r.DeadNodes) > 0 {
		fmt.Fprintf(&b, " failures=%d retried=%d resubmitted=%d dead=%v",
			r.FailedAttempts, r.RetriedTasks, r.Resubmissions, r.DeadNodes)
	}
	b.WriteString("\n")
	for _, n := range r.PerNode {
		util := 0.0
		if r.MakespanSeconds > 0 {
			util = n.BusySeconds / r.MakespanSeconds
		}
		fmt.Fprintf(&b, "  %-10s tasks=%-5d invocations=%-5d busy=%.6fs util=%.0f%% shipped=%.1fMB returned=%.1fMB",
			n.Name, n.Tasks, n.Invocations, n.BusySeconds, util*100,
			float64(n.TransferBytes)/(1<<20), float64(n.ReturnBytes)/(1<<20))
		if n.Resubmits > 0 || n.Dead {
			fmt.Fprintf(&b, " resubmitted=%d dead=%v", n.Resubmits, n.Dead)
		}
		if n.Stragglers > 0 {
			fmt.Fprintf(&b, " stragglers=%d slowdown=x%.1f", n.Stragglers, n.Slowdown)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Master dispatches a task graph across worker nodes.
type Master struct {
	cfg  Config
	http *http.Client
}

// NewMaster validates the config and applies defaults.
func NewMaster(cfg Config) (*Master, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: master needs at least one node")
	}
	seen := map[string]bool{}
	for i, n := range cfg.Nodes {
		if n.Name == "" || n.Addr == "" {
			return nil, fmt.Errorf("cluster: node %d needs name and addr", i)
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	if cfg.Models == nil {
		cfg.Models = perfmodel.NewStore()
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = cfg.HeartbeatEvery
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = time.Second
	}
	if cfg.AllDeadTimeout <= 0 {
		cfg.AllDeadTimeout = 30 * time.Second
	}
	if cfg.ExecTimeout <= 0 {
		cfg.ExecTimeout = 2 * time.Minute
	}
	m := &Master{cfg: cfg, http: cfg.HTTP}
	if m.http == nil {
		m.http = &http.Client{}
	}
	return m, nil
}

// publishEvery is how many task completions elapse between live re-publishes
// of the merged cluster trace to trace.Published (the /debug/trace surface).
const publishEvery = 64

// heartbeatMisses failed probes in a row take an up node down.
const heartbeatMisses = 3

// masterName is the master's own node label in traces.
const masterName = "master"

// lanLink prices the master→node path when the platform declares no route
// for it, and stands in for an undeclared property on a hop of one that it
// does: a LAN hop, 1 GiB/s and 200 µs.
var lanLink = placement.Link{LatNanos: 200e3, NanosPerByte: 1e9 / (1 << 30)}

// nodeState is the master's view of one node during a run. All fields are
// owned by the run loop goroutine except the control client (the node's
// heartbeat's), the send queue and the execute stream.
type nodeState struct {
	cfg NodeConfig
	ctl *client.Client

	// sendq holds the invocations dispatched to the node and not yet written
	// to its stream, in dispatch order; sending says a sender goroutine is
	// draining it. One sender at a time is what makes the stream's order the
	// dispatch order, which the residency record below relies on.
	sendMu  sync.Mutex
	sendq   []*inflightRec
	sending bool

	// stream is the node's current execute stream, opened by the sender when
	// it needs one; streamed records that one was opened before, which makes
	// the next a reconnect.
	streamMu sync.Mutex
	stream   *execStream
	streamed bool

	// alive is the one record of the node's liveness: the loop sets it, from
	// probe outcomes (probed) and data-plane transport errors (handleResult).
	alive    bool
	misses   int // consecutive failed probes while alive
	suspects int // consecutive transport errors on the data plane
	info     InfoResponse
	maxCred  int
	credits  int
	// backlog is the placement.Candidate.Charge of every invocation in
	// flight on the node, nanoseconds: dispatch adds it, release returns it.
	backlog int64
	// has is the version of each handle, by id, the node's cache is believed
	// to hold: recorded when a payload is dispatched inline (the stream
	// delivers it before anything dispatched later) and when a chain's writes
	// are applied.
	has []cached

	link placement.Link    // the master→node route
	obs  placement.History // kernel time observed on this node

	// Straggler detector state: EWMA of observed/estimated latency over
	// model-placed tasks, and how many such observations exist.
	slowEWMA    float64
	slowSamples int

	stats NodeStats
}

// events flowing into the run loop.
type eventKind int

const (
	evResult  eventKind = iota // rec's outcome: resp, or err when the transport failed
	evRequeue                  // task's backoff is over
	evProbed                   // node answered a heartbeat probe with info, or failed it with err
	evAllDead
)

type event struct {
	kind eventKind
	node *nodeState
	rec  *inflightRec
	resp *ExecResponse
	err  error
	task *taskrt.Task
	info InfoResponse
}

// cached is a node's believed copy of one handle; the zero value is "none".
type cached struct {
	ver uint64
	ok  bool
}

// inflightRec is one invocation from dispatch to outcome: a chain of tasks on
// a node. The members' taskStates, the node's sendq and the stream's pending
// table all point at this one record; each field has one owner at a time, and
// the lock or channel it is handed over through orders the two.
type inflightRec struct {
	// The loop's.
	members  []member // the chain, head first
	node     *nodeState
	cand     placement.Candidate // the node's winning bid for the whole chain: its Charge is on node.backlog until released
	released bool                // credit/backlog already returned

	// Built by dispatch, then the node's sender's until the request is
	// written: ship announces each inline payload's frame in its spec in req,
	// counts it, drops inline and writes the frames behind the request. The
	// loop reads the counts with the outcome.
	req     *ExecRequest
	inline  []inlinePayload
	shipped int64 // frame bytes inlined
	inlines int

	// The stream's, under its mu, while the record is pending on it.
	timeout *time.Timer // fails this invocation alone, ExecTimeout after submit
	sent    time.Time   // when the request was fully written; zero until then
}

// member is one task of a chain with the chosen node's estimate for it, which
// its observed kernel time is later held against.
type member struct {
	task *taskrt.Task
	exec int64 // placement.Estimate's answer, nanoseconds
	src  placement.Source
}

func (rec *inflightRec) head() *taskrt.Task { return rec.members[0].task }

// forgetResidency drops the node's believed residency of the handles the
// chain accesses: all of them, or only the ones a step writes.
func (rec *inflightRec) forgetResidency(writtenOnly bool) {
	for _, m := range rec.members {
		for _, a := range m.task.Accesses {
			if !writtenOnly || a.Mode.Writes() {
				rec.node.has[a.Handle.ID()] = cached{}
			}
		}
	}
}

// runState is the mutable state of one Run, owned by the loop goroutine.
type runState struct {
	m       *Master
	graph   *taskrt.Runtime // the edges: Deps and Dependents by id
	tasks   []*taskrt.Task
	handles []*taskrt.Handle
	nodes   []*nodeState

	ver    []uint64    // current version per handle id
	walk   []uint64    // eachAccess's scratch per handle id, zero between walks
	task   []taskState // by task id
	flying int         // invocations in flight
	ready  []*taskrt.Task

	// What a node may send back, fixed when the run starts and read by the
	// streams' readers: per handle id the frame length of its canonical payload
	// (0 when that is not dense), and the bound on one response message.
	returns []int64
	respMax int64

	obs    placement.History // kernel time observed on every node: the cold estimate
	cursor uint64            // placement.Pick cursor, advanced per choose

	events chan event
	stop   chan struct{}
	bg     sync.WaitGroup // the execute streams' reader goroutines and the nodes' senders
	start  time.Time

	retriedTasks int // tasks with at least one failed attempt

	// Worker-side kernel spans, keyed by (node, process epoch) so a
	// restarted worker gets a fresh, correctly-aligned input trace instead
	// of polluting its predecessor's time base. Order is first-seen, for
	// deterministic merges.
	nodeTraces     map[nodeEpoch]*trace.Trace
	nodeTraceOrder []nodeEpoch
	sincePublish   int
}

// taskState is the master's record of one task.
type taskState struct {
	indeg    int          // dependencies not yet done
	attempts int          // in-band failures charged to it
	done     bool         // applied, exactly once
	inflight *inflightRec // the invocation carrying it now, if any
}

// nodeEpoch identifies one worker process incarnation.
type nodeEpoch struct {
	node  string
	epoch int64
}

func (st *runState) send(ev event) {
	select {
	case st.events <- ev:
	case <-st.stop:
	}
}

// shutdown ends the run's goroutines: heartbeats and timers see stop, every
// node's stream is retired — which fails a sender's write in progress, and
// what it has left to send fails at once — and readers and senders are waited
// for.
func (st *runState) shutdown() {
	close(st.stop)
	for _, n := range st.nodes {
		n.retireStream()
	}
	st.bg.Wait()
}

func (m *Master) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// newRun takes rt's graph and builds the state of one run over it: a record
// per task, a version per handle, and every configured node — down until its
// heartbeat says otherwise — with the price of its link from the master.
func (m *Master) newRun(rt *taskrt.Runtime) (*runState, error) {
	tasks, handles, err := rt.Graph()
	if err != nil {
		return nil, err
	}
	st := &runState{
		m:       m,
		graph:   rt,
		tasks:   tasks,
		handles: handles,
		ver:     make([]uint64, len(handles)),
		walk:    make([]uint64, len(handles)),
		task:    make([]taskState, len(tasks)),
		events:  make(chan event, 64),
		stop:    make(chan struct{}),
		start:   time.Now(),
	}
	// A response holds at most every task's span (label, parents), run record
	// and written or missing entries, an error string, and every handle once.
	st.respMax = 1 << 20
	for _, t := range tasks {
		deps := len(rt.Deps(t))
		st.task[t.ID()].indeg = deps
		st.respMax += int64(256 + len(t.Label) + 16*deps + 64*len(t.Accesses))
	}
	st.returns = make([]int64, len(handles))
	for i, h := range handles {
		st.returns[i], _ = frameLen(h.Payload)
		st.respMax += st.returns[i] + looseFrame(h)
	}
	for _, nc := range m.cfg.Nodes {
		// Config.HTTP's transport, under the per-probe Timeout its streaming client cannot have.
		ctl, err := client.New(nc.Addr,
			client.WithHTTPClient(&http.Client{Transport: m.http.Transport, Timeout: m.cfg.HeartbeatTimeout}),
			client.WithRetry(0, 0))
		if err != nil {
			return nil, fmt.Errorf("cluster: node %s: %v", nc.Name, err)
		}
		n := &nodeState{cfg: nc, ctl: ctl, has: make([]cached, len(handles)), link: lanLink}
		n.stats.Name = nc.Name
		if l, ok := placement.RouteLink(m.cfg.Platform, m.cfg.MasterPU, nc.PU, lanLink); ok {
			n.link = l
		}
		st.nodes = append(st.nodes, n)
	}
	return st, nil
}

// Run executes a fully-submitted (and not yet run) Runtime's graph across
// the configured nodes, applying results into the Runtime's handle payloads
// exactly once. It is the cluster-wide counterpart of Runtime.Run.
func (m *Master) Run(rt *taskrt.Runtime) (*Report, error) {
	st, err := m.newRun(rt)
	if err != nil {
		return nil, err
	}
	defer st.shutdown()
	if len(st.tasks) == 0 {
		return &Report{}, nil
	}

	if tr := m.cfg.Trace; tr != nil {
		tr.SetMeta(trace.MetaNode, masterName)
		tr.SetMeta(trace.MetaEpochMicros, fmt.Sprintf("%d", st.start.UnixMicro()))
	}
	for _, n := range st.nodes {
		cm.nodeUp.With(n.cfg.Name).Set(0)
		cm.reconnects.With(n.cfg.Name) // the series exists from the first scrape, at 0
		go st.heartbeat(n)
	}
	for i, t := range st.tasks {
		if st.task[i].indeg == 0 {
			st.ready = append(st.ready, t)
		}
	}

	remaining := len(st.tasks)
	var deadTimer *time.Timer
	defer func() {
		if deadTimer != nil {
			deadTimer.Stop()
		}
	}()
	for remaining > 0 {
		st.dispatchReady()
		if st.flying == 0 && len(st.ready) > 0 && st.aliveCount() > 0 {
			// Nothing in flight means every alive node has full credit, yet
			// no ready task was placeable: the codelet runs nowhere.
			t := st.ready[0]
			return nil, fmt.Errorf("cluster: no alive node can run codelet %q (task %d)", t.Codelet.Name, t.ID())
		}
		if st.aliveCount() == 0 {
			if deadTimer == nil {
				deadTimer = time.AfterFunc(m.cfg.AllDeadTimeout, func() { st.send(event{kind: evAllDead}) })
			}
		} else if deadTimer != nil {
			deadTimer.Stop()
			deadTimer = nil
		}

		ev := <-st.events
		switch ev.kind {
		case evProbed:
			st.probed(ev.node, ev.info, ev.err)
		case evRequeue:
			st.ready = append(st.ready, ev.task)
		case evAllDead:
			if st.aliveCount() == 0 {
				return nil, fmt.Errorf("cluster: all %d nodes dead for %s with %d tasks outstanding",
					len(st.nodes), m.cfg.AllDeadTimeout, remaining)
			}
		case evResult:
			completed, err := st.handleResult(ev)
			if err != nil {
				return nil, err
			}
			if completed > 0 {
				remaining -= completed
				st.sincePublish += completed
				if st.sincePublish >= publishEvery {
					st.publishMerged()
					st.sincePublish = 0
				}
			}
		}
	}

	rep := &Report{
		Tasks:           len(st.tasks),
		MakespanSeconds: time.Since(st.start).Seconds(),
		RetriedTasks:    st.retriedTasks,
	}
	for _, n := range st.nodes {
		n.stats.Dead = !n.alive
		if n.stats.Dead {
			rep.DeadNodes = append(rep.DeadNodes, n.cfg.Name)
		}
		rep.FailedAttempts += n.stats.Retries
		rep.Resubmissions += n.stats.Resubmits
		rep.Invocations += n.stats.Invocations
		rep.Transfers += n.stats.Transfers
		rep.TransferBytes += n.stats.TransferBytes
		rep.Returns += n.stats.Returns
		rep.ReturnBytes += n.stats.ReturnBytes
		rep.Stragglers += n.stats.Stragglers
		rep.PerNode = append(rep.PerNode, n.stats)
	}
	sort.Strings(rep.DeadNodes)
	sort.Slice(rep.PerNode, func(i, j int) bool { return rep.PerNode[i].Name < rep.PerNode[j].Name })
	rep.Trace = st.publishMerged()
	return rep, nil
}

// ingestSpans files the worker kernel spans piggybacked on a response into
// the per-(node, epoch) trace they belong to. Keying by process epoch means
// a restarted worker's spans align against its own time base instead of its
// predecessor's.
func (st *runState) ingestSpans(n *nodeState, resp *ExecResponse) {
	if len(resp.Spans) == 0 || resp.EpochMicros == 0 {
		return
	}
	key := nodeEpoch{node: n.cfg.Name, epoch: resp.EpochMicros}
	if st.nodeTraces == nil {
		st.nodeTraces = map[nodeEpoch]*trace.Trace{}
	}
	tr, ok := st.nodeTraces[key]
	if !ok {
		tr = trace.New()
		tr.SetMeta(trace.MetaNode, n.cfg.Name)
		tr.SetMeta(trace.MetaEpochMicros, fmt.Sprintf("%d", resp.EpochMicros))
		st.nodeTraces[key] = tr
		st.nodeTraceOrder = append(st.nodeTraceOrder, key)
	}
	for _, e := range resp.Spans {
		tr.Record(e)
	}
}

// publishMerged stitches the master trace and every node's span trace into
// one epoch-aligned timeline, publishes it as the process's current trace
// (the /debug/trace surface) and returns it. Nil when the master itself has
// no trace configured and no spans arrived.
func (st *runState) publishMerged() *trace.Trace {
	var inputs []*trace.Trace
	if st.m.cfg.Trace != nil {
		inputs = append(inputs, st.m.cfg.Trace)
	}
	for _, key := range st.nodeTraceOrder {
		inputs = append(inputs, st.nodeTraces[key])
	}
	if len(inputs) == 0 {
		return nil
	}
	merged, err := trace.Merge(inputs...)
	if err != nil {
		st.m.logf("cluster: merging node traces: %v", err)
		return nil
	}
	trace.Publish(merged)
	return merged
}

func (st *runState) aliveCount() int {
	n := 0
	for _, node := range st.nodes {
		if node.alive {
			n++
		}
	}
	return n
}

// heartbeat probes the node's /v1/info every HeartbeatEvery until the run ends
// (n.ctl bounds each probe by HeartbeatTimeout) and reports each outcome to the
// loop. It keeps nothing: what an answer or a silence means is probed's to decide.
func (st *runState) heartbeat(n *nodeState) {
	for {
		var info InfoResponse
		err := n.ctl.GetJSON(context.Background(), PathInfo, &info)
		st.send(event{kind: evProbed, node: n, info: info, err: err})
		select {
		case <-st.stop:
			return
		case <-time.After(st.m.cfg.HeartbeatEvery):
		}
	}
}

// probed is the only place a probe changes what the master believes of a
// node: an answer brings a down node up, however it went down, with what it
// now advertises; heartbeatMisses failed probes in a row take an up node down.
func (st *runState) probed(n *nodeState, info InfoResponse, err error) {
	switch {
	case err == nil:
		n.misses = 0
		st.nodeUp(n, info)
	case n.alive:
		n.misses++
		cm.hbMisses.With(n.cfg.Name).Inc()
		if n.misses >= heartbeatMisses {
			st.nodeDown(n)
		}
	}
}

func (st *runState) nodeUp(n *nodeState, info InfoResponse) {
	if n.alive {
		return
	}
	n.alive = true
	n.info = info
	n.suspects = 0
	// Fresh (or restarted) process: its cache is unknown, so forget what we
	// believed resident — every first access re-inlines — and talk to it on a
	// fresh stream. Whatever the old one still owed was resubmitted by
	// nodeDown.
	clear(n.has)
	n.retireStream()
	n.maxCred = st.m.cfg.MaxInflight
	if n.maxCred <= 0 {
		w := info.Workers
		if w <= 0 {
			w = 1
		}
		n.maxCred = 2 * w
	}
	n.credits = n.maxCred
	n.backlog = 0
	cm.nodeUp.With(n.cfg.Name).Set(1)
	st.m.logf("cluster: node %s up (archs %v, %d workers, %d codelets)",
		n.cfg.Name, info.Archs, info.Workers, len(info.Codelets))
	st.instant(trace.Event{Kind: trace.Recover, Node: n.cfg.Name, TaskID: trace.NoTask})
}

// nodeDown blacklists the node and resubmits everything it had in flight.
func (st *runState) nodeDown(n *nodeState) {
	if !n.alive {
		return
	}
	n.alive = false
	cm.nodeUp.With(n.cfg.Name).Set(0)
	// A dead node must not linger in scrapes as a ghost: its inflight gauge
	// goes to zero here (each resubmitted rec below also decrements, but a
	// defensive set keeps the invariant even if accounting ever drifts) and
	// its slowdown series is deleted outright — a score with no live node
	// behind it is noise, and a rejoining process starts fresh.
	cm.slowdown.Delete(n.cfg.Name)
	n.slowEWMA, n.slowSamples = 0, 0
	st.m.logf("cluster: node %s dead; resubmitting its in-flight tasks", n.cfg.Name)
	st.instant(trace.Event{Kind: trace.Blacklist, Node: n.cfg.Name, TaskID: trace.NoTask})
	for i := range st.task {
		if rec := st.task[i].inflight; rec != nil && rec.node == n && st.release(rec) {
			st.resubmit(rec)
		}
	}
	// What was queued for the node and not yet sent was just resubmitted with
	// the rest: it must not reach the node's next incarnation.
	n.sendMu.Lock()
	n.sendq = nil
	n.sendMu.Unlock()
	cm.inflight.With(n.cfg.Name).Set(0)
	n.credits = 0
}

// resubmit requeues the head of a chain its dead node will not answer, and
// counts every member as lost work.
func (st *runState) resubmit(rec *inflightRec) {
	n, lost := rec.node, len(rec.members)
	n.stats.Resubmits += lost
	cm.resubmits.With(n.cfg.Name).Add(float64(lost))
	st.requeueWithBackoff(rec.head(), st.task[rec.head().ID()].attempts)
}

// release returns the credit and the backlog charge dispatch took for rec,
// once: false when they were already returned (the node died first, or this
// is the late result of an invocation nodeDown resubmitted).
func (st *runState) release(rec *inflightRec) bool {
	if rec.released {
		return false
	}
	rec.released = true
	n := rec.node
	n.credits++
	n.backlog -= rec.cand.Charge()
	cm.inflight.With(n.cfg.Name).Dec()
	st.flying--
	for _, m := range rec.members {
		st.task[m.task.ID()].inflight = nil
	}
	return true
}

// requeueWithBackoff schedules the task back into ready after the delay that
// follows a task's failures-th failed attempt — taskrt's one backoff formula,
// over the master's base and cap.
func (st *runState) requeueWithBackoff(t *taskrt.Task, failures int) {
	cfg := st.m.cfg
	d := taskrt.Backoff(cfg.BackoffBase.Seconds(), cfg.BackoffCap.Seconds(), failures)
	time.AfterFunc(time.Duration(d*float64(time.Second)), func() { st.send(event{kind: evRequeue, task: t}) })
}

// nodeRuns reports whether the node advertises the codelet as runnable.
func (n *nodeState) nodeRuns(codelet string) bool {
	if len(n.info.Codelets) == 0 {
		return true // no advertisement: optimistic, execute surfaces errors
	}
	for _, c := range n.info.Codelets {
		if c == codelet {
			return true
		}
	}
	return false
}

// modelNanos is the perfmodel's estimate for the task on the first of the
// node's architectures that has one.
func (st *runState) modelNanos(t *taskrt.Task, n *nodeState) (int64, bool) {
	if t.Flops <= 0 {
		return 0, false
	}
	for _, arch := range n.info.Archs {
		if t.Codelet.ImplFor(arch) == nil {
			continue
		}
		if sec, ok := st.m.cfg.Models.Model(t.Codelet.Name, arch).Estimate(t.Flops); ok {
			return int64(sec * 1e9), true
		}
	}
	return 0, false
}

// hasVersion reports whether the node is believed to cache the handle at
// exactly this version. The ok flag matters: handles start at version 0, and
// an entry never recorded must not read as "version 0 resident".
func (n *nodeState) hasVersion(id int, ver uint64) bool {
	return n.has[id] == cached{ver, true}
}

// chainBehind returns t and the linear run of the graph behind it: each next
// member is the previous one's only dependent and waits on nothing else that
// is still to finish. Nobody outside the chain waits on its interior, so
// running it as one invocation delays no one.
func (st *runState) chainBehind(t *taskrt.Task) []*taskrt.Task {
	run := []*taskrt.Task{t}
	for {
		next := st.graph.Dependents(t)
		if len(next) != 1 || st.task[next[0]].indeg != 1 {
			return run
		}
		t = st.tasks[next[0]]
		run = append(run, t)
	}
}

// eachAccess walks a chain's accesses in step order. ver is the version the
// step will find: the master's, plus the chain's own writes before it. inline
// says the payload must travel with the request: the chain touches the handle
// here first and the node is not believed to hold the master's version.
func (st *runState) eachAccess(chain []member, n *nodeState, visit func(step int, a taskrt.Access, ver uint64, inline bool)) {
	// st.walk[id] is one more than the chain's writes to the handle so far, 0
	// while the chain has not touched it.
	for k, m := range chain {
		for _, a := range m.task.Accesses {
			id := a.Handle.ID()
			touched := st.walk[id] > 0
			if !touched {
				st.walk[id] = 1
			}
			visit(k, a, st.ver[id]+st.walk[id]-1, !touched && !n.hasVersion(id, st.ver[id]))
			if a.Mode.Writes() {
				st.walk[id]++
			}
		}
	}
	for _, m := range chain {
		for _, a := range m.task.Accesses {
			st.walk[a.Handle.ID()] = 0
		}
	}
}

// bid is the node's offer for the chain headed by run[0]: as much of run as
// the node can execute (the head it can, choose checked), priced as one
// candidate — the members' estimates summed, and the transfer of every
// payload that would go inline, each once.
func (st *runState) bid(run []*taskrt.Task, n *nodeState) ([]member, placement.Candidate) {
	chain := make([]member, 0, len(run))
	c := placement.Candidate{Slowdown: n.slowEWMA}
	for k, t := range run {
		if k > 0 && !n.nodeRuns(t.Codelet.Name) {
			break
		}
		model, ok := st.modelNanos(t, n)
		exec, src := placement.Estimate(model, ok, n.obs, st.obs)
		chain = append(chain, member{task: t, exec: exec, src: src})
		c.Exec += exec
	}
	c.Source = chain[0].src
	st.eachAccess(chain, n, func(_ int, a taskrt.Access, _ uint64, inline bool) {
		if inline {
			c.Xfer += n.link.Nanos(a.Handle.Bytes)
		}
	})
	return chain, c
}

// choose offers the chain behind t, as every alive node with free credit that
// can run t would take it, to a placement.Pick — internal/placement's rule,
// one level up from the dmda dispatcher: backlog, the estimate chain over the
// shared perfmodel and the node's observed kernel times, the node's straggler
// score as slowdown (so a detected straggler bids with its real speed rather
// than the model's optimism), and the price of inlining what its version
// cache lacks — so the node already holding a chain's operands wins it.
func (st *runState) choose(t *taskrt.Task) (*nodeState, []member, placement.Candidate, bool) {
	run := st.chainBehind(t)
	chains := make([][]member, len(st.nodes))
	pick := placement.NewPick(len(st.nodes), st.cursor, t.Priority > 0)
	st.cursor++
	for k := range st.nodes {
		i := pick.At(k)
		n := st.nodes[i]
		if !n.alive || n.credits <= 0 || !n.nodeRuns(t.Codelet.Name) {
			continue
		}
		chain, c := st.bid(run, n)
		chains[i] = chain
		pick.Offer(i, n.backlog, c)
	}
	i, c, ok := pick.Best()
	if !ok {
		return nil, nil, c, false
	}
	return st.nodes[i], chains[i], c, true
}

// freeCredit reports whether some alive node can take another invocation.
func (st *runState) freeCredit() bool {
	for _, n := range st.nodes {
		if n.alive && n.credits > 0 {
			return true
		}
	}
	return false
}

// dispatchReady places ready tasks, in order, while some node has credit. A
// task no node with credit can run keeps its place at the front.
func (st *runState) dispatchReady() {
	var deferred []*taskrt.Task
	for len(st.ready) > 0 && st.freeCredit() {
		t := st.ready[0]
		st.ready = st.ready[1:]
		if ts := &st.task[t.ID()]; ts.done || ts.inflight != nil {
			continue // resubmitted and already handled
		}
		n, chain, c, ok := st.choose(t)
		if !ok {
			deferred = append(deferred, t)
			continue
		}
		st.dispatch(n, chain, c)
	}
	if len(deferred) > 0 {
		st.ready = append(deferred, st.ready...)
	}
}

// dispatch charges the node one credit and the chain's bid, records what the
// request will make resident there, and queues it for the node's sender.
func (st *runState) dispatch(n *nodeState, chain []member, c placement.Candidate) {
	rec := &inflightRec{members: chain, node: n, cand: c}
	n.credits--
	n.backlog += c.Charge()
	n.stats.Invocations++
	cm.inflight.With(n.cfg.Name).Inc()
	st.flying++
	cm.invocationTasks.Observe(float64(len(chain)))

	steps := make([]ExecStep, len(chain))
	for k, m := range chain {
		t := m.task
		st.task[t.ID()].inflight = rec
		cm.decisions.With(m.src.String()).Inc()
		place := trace.Event{Kind: trace.Place, Node: n.cfg.Name, Label: t.Label, TaskID: t.ID(), From: m.src.String()}
		if k == 0 {
			place.Transfer = float64(c.Xfer) / 1e9 // the chain's, on its head
		}
		st.instant(place)
		steps[k] = ExecStep{
			TaskID:   t.ID(),
			Attempt:  st.task[t.ID()].attempts,
			Codelet:  t.Codelet.Name,
			Label:    t.Label,
			Flops:    t.Flops,
			Parents:  st.graph.Deps(t),
			Accesses: make([]AccessSpec, 0, len(t.Accesses)), // never regrown: rec.inline points into it
		}
	}
	st.eachAccess(chain, n, func(k int, a taskrt.Access, ver uint64, inline bool) {
		id := a.Handle.ID()
		steps[k].Accesses = append(steps[k].Accesses, AccessSpec{
			HandleID: id,
			Name:     a.Handle.Name,
			Bytes:    a.Handle.Bytes,
			Mode:     int(a.Mode),
			Version:  ver,
		})
		if inline {
			n.has[id] = cached{ver, true}
			rec.inline = append(rec.inline, inlinePayload{&steps[k].Accesses[len(steps[k].Accesses)-1], a.Handle.Payload})
		}
	})
	rec.req = newExecRequest(steps)

	n.sendMu.Lock()
	n.sendq = append(n.sendq, rec)
	start := !n.sending
	n.sending = true
	n.sendMu.Unlock()
	if start {
		st.bg.Add(1)
		go st.sender(n)
	}
}

// sender writes the node's queued invocations to its execute stream in
// dispatch order, and exits when the queue is empty; dispatch starts the next.
func (st *runState) sender(n *nodeState) {
	defer st.bg.Done()
	for {
		n.sendMu.Lock()
		if len(n.sendq) == 0 {
			n.sending = false
			n.sendMu.Unlock()
			return
		}
		rec := n.sendq[0]
		n.sendq = n.sendq[1:]
		n.sendMu.Unlock()
		if err := st.ship(rec); err != nil {
			st.send(event{kind: evResult, rec: rec, err: err})
		}
	}
}

// ship announces the inline payloads' frames in the request and writes it and
// them to the node's stream, whose reader goroutine delivers the outcome; an
// error means it never got that far. It reads only payloads of the chain's own
// accesses, whose writers outside the chain have all been applied (DAG order)
// and which nothing is applied to while the chain is in flight, so the reads
// race with nothing.
func (st *runState) ship(rec *inflightRec) error {
	frames := make([]any, len(rec.inline))
	for i, in := range rec.inline {
		var err error
		if frames[i], in.spec.FrameLen, err = announce(in.payload); err != nil {
			return fmt.Errorf("encoding handle %d: %w", in.spec.HandleID, err)
		}
		rec.shipped += in.spec.FrameLen
	}
	rec.inlines, rec.inline = len(rec.inline), nil
	s, err := st.stream(rec.node)
	if err != nil {
		return err
	}
	return s.submit(rec, frames)
}

// looseFrame bounds the frame of a payload that is not dense: a gob box of
// twice the handle's declared bytes, and a page for gob's own words.
func looseFrame(h *taskrt.Handle) int64 { return 2*h.Bytes + 4096 }

// returned checks what a node announces it wrote, on the stream's reader and
// before a byte of the frame is read or memory found for it: the handle
// exists, the answered chain writes it, and the frame is as long as the
// handle's canonical payload frames to.
func (st *runState) returned(rec *inflightRec, wr *Written) error {
	id, n := wr.HandleID, wr.FrameLen
	if id < 0 || id >= len(st.returns) {
		return fmt.Errorf("task %d result writes unknown handle %d", rec.req.TaskID, id)
	}
	writes := false
	for _, m := range rec.members {
		for _, a := range m.task.Accesses {
			writes = writes || a.Handle.ID() == id && a.Mode.Writes()
		}
	}
	if !writes {
		return fmt.Errorf("task %d result returns handle %d, which its chain does not write", rec.req.TaskID, id)
	}
	if want := st.returns[id]; n < 1 || want > 0 && n != want || want == 0 && n > looseFrame(st.handles[id]) {
		return fmt.Errorf("task %d result announces %d bytes for handle %d, whose payload frames to %d", rec.req.TaskID, n, id, want)
	}
	return nil
}

// handleResult applies one invocation's outcome and returns how many tasks
// newly completed: the whole chain or none. This is the exactly-once point:
// results for chains already done (late arrivals from presumed-dead nodes,
// duplicates after resubmission) are dropped before any state changes. The
// head stands for the chain in both checks — no member can be done or in
// flight elsewhere while the head, which they all wait on, is neither.
func (st *runState) handleResult(ev event) (int, error) {
	rec, n, head := ev.rec, ev.rec.node, ev.rec.head()
	live := st.release(rec)
	// Ingest piggybacked worker spans before the exactly-once drop: even a
	// duplicate attempt really executed, and the merged timeline should show
	// it (that is how duplicated work becomes visible).
	if ev.resp != nil {
		st.ingestSpans(n, ev.resp)
	}
	if st.task[head.ID()].done {
		return 0, nil // duplicate of a completed chain: exactly-once drop
	}
	if cur := st.task[head.ID()].inflight; cur != nil && cur != rec {
		// A late result from a presumed-dead node, while the resubmitted
		// copy is already in flight. Drop even a success: the copy was
		// dispatched from identical inputs and will produce the same
		// output, and applying now would race with the copy's payload
		// encoding.
		return 0, nil
	}
	resp := ev.resp
	if !live && (resp == nil || !resp.OK) {
		// The node died under this record and nodeDown requeued the head: a
		// late non-result changes nothing.
		return 0, nil
	}

	switch {
	case ev.err != nil:
		// Transport-level failure: the infrastructure faulted, not the
		// task, so no attempt is consumed; repeated faults take the node
		// down without waiting for its probes to fail.
		n.suspects++
		st.m.logf("cluster: node %s transport error (task %d): %v", n.cfg.Name, head.ID(), ev.err)
		if n.suspects >= 2 && n.alive {
			st.nodeDown(n)
			// nodeDown resubmits the node's in-flight chains, but this rec
			// was already released above — resubmit it explicitly.
			st.resubmit(rec)
		} else {
			st.requeueWithBackoff(head, st.task[head.ID()].attempts)
		}
		return 0, nil

	case len(resp.NeedData) > 0:
		// Worker cache miss (eviction or restart): redispatch at once; no
		// attempt consumed, no backoff. Forget the node's residency of every
		// handle the chain touches, not only the ones it named: the bounced
		// request carried payloads too, and in a cache smaller than a chain's
		// operands admitting those may be what evicted these — forgetting the
		// named ones alone lets two halves of the operands bounce each other
		// out forever. The retry travels whole, so it always runs. The
		// completed round-trip also proves transport is healthy, so clear
		// suspicion like the other in-band outcomes do.
		n.suspects = 0
		rec.forgetResidency(false)
		n.stats.NeedData++
		cm.needData.With(n.cfg.Name).Inc()
		st.ready = append(st.ready, head)
		return 0, nil

	case !resp.OK:
		// In-band execution failure at one step: that member pays an attempt —
		// and sets the backoff, so a chain whose third step keeps failing backs
		// off as that step would alone — and the chain starts over from the
		// master's unchanged state. The steps before it, and the failing kernel
		// itself, may have mutated write-mode payloads in place — the worker
		// keeps none of them — so forget their residency and re-inline
		// canonical bytes on the retry.
		rec.forgetResidency(true)
		t := head
		if k := resp.FailedStep; k > 0 && k < len(rec.members) {
			t = rec.members[k].task
		}
		n.suspects = 0
		n.stats.Retries++
		cm.retries.With(n.cfg.Name).Inc()
		ts := &st.task[t.ID()]
		ts.attempts++
		if ts.attempts == 1 {
			st.retriedTasks++
		}
		st.instant(trace.Event{Kind: trace.Retry, Node: n.cfg.Name, Label: t.Label, TaskID: t.ID()})
		if ts.attempts >= st.m.cfg.MaxAttempts {
			return 0, fmt.Errorf("cluster: task %d (%s) failed %d attempts, last on %s: %s",
				t.ID(), t.Label, ts.attempts, n.cfg.Name, resp.Error)
		}
		st.m.logf("cluster: task %d failed on %s (attempt %d): %s", t.ID(), n.cfg.Name, ts.attempts, resp.Error)
		st.requeueWithBackoff(head, ts.attempts)
		return 0, nil
	}

	// Success: apply the chain's writes under first-writer-wins (the
	// done-check above), update residency, mark every member done and release
	// the dependents of each — for all but the tail, the next member.
	if len(resp.Ran) != len(rec.members) {
		return 0, fmt.Errorf("cluster: task %d result from %s reports %d steps run of a chain of %d",
			head.ID(), n.cfg.Name, len(resp.Ran), len(rec.members))
	}
	n.suspects = 0
	for _, wr := range resp.Written {
		h := st.handles[wr.HandleID] // in range: returned checked it before reading the frame
		applied, err := ApplyPayload(h.Payload, wr.payload)
		if err != nil {
			return 0, fmt.Errorf("cluster: task %d result, handle %d: %w", head.ID(), wr.HandleID, err)
		}
		if m, ok := wr.payload.(*blas.Matrix); ok && applied != wr.payload {
			staged.Put(m.Data)
		}
		h.Payload = applied
		st.ver[wr.HandleID] = wr.Version
		n.has[wr.HandleID] = cached{wr.Version, true}
		n.stats.ReturnBytes += wr.FrameLen
		cm.returnB.With(n.cfg.Name).Add(float64(wr.FrameLen))
	}
	n.stats.Returns += len(resp.Written)
	n.stats.Transfers += rec.inlines
	n.stats.TransferBytes += rec.shipped
	if rec.inlines > 0 {
		cm.transfers.With(n.cfg.Name).Add(float64(rec.inlines))
		cm.transferB.With(n.cfg.Name).Add(float64(rec.shipped))
	}
	for _, m := range rec.members {
		st.task[m.task.ID()].done = true
	}
	for k, m := range rec.members {
		t, ran := m.task, resp.Ran[k]
		n.stats.Tasks++
		n.stats.BusySeconds += ran.Seconds
		cm.tasks.With(n.cfg.Name).Inc()
		cm.taskSeconds.With(n.cfg.Name).Observe(ran.Seconds)
		st.observeResidual(n, m, ran.Seconds)
		// Feed the kernel time into the node's and the pool's observed history
		// and the shared perfmodel (keyed by the arch the worker actually used).
		if ran.Seconds > 0 {
			nanos := int64(ran.Seconds * 1e9)
			n.obs.Nanos += nanos
			n.obs.Count++
			st.obs.Nanos += nanos
			st.obs.Count++
			if t.Flops > 0 && ran.Arch != "" {
				st.m.cfg.Models.Model(t.Codelet.Name, ran.Arch).Record(t.Flops, ran.Seconds)
			}
		}
		for _, dep := range st.graph.Dependents(t) {
			ds := &st.task[dep]
			ds.indeg--
			if ds.indeg == 0 && !ds.done {
				st.ready = append(st.ready, st.tasks[dep])
			}
		}
	}
	return len(rec.members), nil
}

// instant records ev on the master's trace as happening now, against the
// node ev names.
func (st *runState) instant(ev trace.Event) {
	tr := st.m.cfg.Trace
	if tr == nil {
		return
	}
	ev.Unit = masterName
	ev.Start = time.Since(st.start).Seconds()
	ev.End = ev.Start
	tr.Record(ev)
}
