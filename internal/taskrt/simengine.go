package taskrt

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simhw"
	"repro/internal/trace"
)

// simUnit pairs a simulated hardware unit with its occupancy resource and
// its fault-tolerance state.
type simUnit struct {
	hw    *simhw.Unit
	idx   int // lane index, stamped into trace spans as Worker
	class int // index into simState.bids: units of one class bid alike
	res   sim.Resource
	tasks int
	hist  *metrics.Histogram // taskrt_task_seconds{unit}

	started   int         // attempts launched on this unit (fault triggers)
	downUntil sim.Time    // transient blacklisting: unavailable before this
	dead      bool        // permanent blacklisting: skipped by schedulers
	faults    *faultQueue // injected events for this unit, in plan order
}

// availAt returns when the unit can next start work, accounting for both
// occupancy and transient blacklisting.
func (su *simUnit) availAt() sim.Time {
	return max(su.res.Available(), su.downUntil)
}

// simFailure describes one failed attempt to the scheduling loop.
type simFailure struct {
	at sim.Time // detection time
	on *simUnit
}

// simTask is the engine's record of one task.
type simTask struct {
	remaining int      // dependencies not yet completed
	readyAt   sim.Time // when the last of them completed, or a retry's backoff ends
	attempt   int      // failed attempts so far, stamped into the task's spans
}

// simState is the mutable state of one simulated execution: plain tables
// indexed by Task.ID() and Handle.ID(), which are dense by construction.
type simState struct {
	machine *simhw.Machine
	units   []*simUnit
	// cands is compatibleUnits' last answer; candsFor is the codelet it holds
	// for a task without Where, nil when it must be rebuilt.
	cands    []*simUnit
	candsFor *Codelet
	bids     []classBid     // dmda's per-class scratch, one row per unit class
	picks    int            // dmda picks so far: a bid row is current when stamped with it
	dma      []sim.Resource // one DMA engine per memory node
	graph    *Graph         // the task graph: its tasks, handles and edges
	cfg      Config         // the run's: Scheduler, Trace, Tracker, Models
	// valid is the coherence table, one row of len(dma) nodes per handle:
	// valid[h.id*len(dma)+node] says node holds a valid copy of h.
	valid []bool
	tasks []simTask // by task id
	nodes []string  // a memory node's lane in transfer spans, when tracing

	// Fault tolerance.
	ft     bool
	policy RetryPolicy

	completed int      // tasks finished
	makespan  sim.Time // when the last of them ended

	transferBytes int64
	transferSecs  float64
	transferCount int

	failedAttempts int
	retriedTasks   int
	watchdogTrips  int
	failedUnits    []string // permanently blacklisted by failures, in order
}

// copies returns h's row of the coherence table, one flag per memory node.
func (st *simState) copies(h *Handle) []bool {
	n := len(st.dma)
	return st.valid[h.id*n : (h.id+1)*n]
}

// newSimState builds the state of one simulated execution of g under cfg.
func newSimState(g *Graph, cfg Config) (*simState, error) {
	machine, err := simhw.FromPlatform(cfg.Platform)
	if err != nil {
		return nil, err
	}
	st := &simState{
		machine: machine,
		dma:     make([]sim.Resource, machine.NumNodes()),
		graph:   g,
		cfg:     cfg,
		valid:   make([]bool, len(g.handles)*machine.NumNodes()),
		tasks:   make([]simTask, len(g.tasks)),
		ft:      cfg.ftEnabled(),
		policy:  cfg.Retry.withDefaults(),
	}
	if cfg.Trace != nil {
		for node := range st.dma {
			st.nodes = append(st.nodes, fmt.Sprintf("node%d", node))
		}
		// Every task leaves at least one span.
		cfg.Trace.Reserve(len(g.tasks))
	}
	// Units the tracker already reports offline start blacklisted: the
	// in-flight path honours the same descriptor state the re-plan path
	// (dynamic.Tracker.Snapshot) would have pruned.
	var offline []string
	if cfg.Tracker != nil {
		offline = cfg.Tracker.OfflineUnits()
	}
	// A unit's class is everything stage and kernelSeconds read of it.
	type classKey struct {
		arch         string
		node         int
		rate, launch float64
	}
	classes := map[classKey]int{}
	for _, u := range machine.Units {
		key := classKey{u.Arch, u.MemNode, u.GFlopsDP, u.LaunchS}
		class, ok := classes[key]
		if !ok {
			class = len(classes)
			classes[key] = class
		}
		su := &simUnit{hw: u, idx: len(st.units), class: class, hist: rtm.taskSeconds.With(u.ID), dead: unitAllowed(u.ID, offline)}
		if evs := cfg.Faults.forUnit(u.ID); len(evs) > 0 {
			su.faults = &faultQueue{events: evs}
		}
		st.units = append(st.units, su)
	}
	st.bids = make([]classBid, len(classes))
	// Every datum starts out in host RAM.
	for h := range g.handles {
		st.valid[h*len(st.dma)] = true
	}
	for id := range st.tasks {
		st.tasks[id].remaining = g.depOff[id+1] - g.depOff[id]
	}
	return st, nil
}

// runSim executes the task graph in virtual time via greedy list scheduling
// with the configured policy. The algorithm is deterministic for a given
// (platform, task graph, scheduler, fault plan).
func runSim(g *Graph, cfg Config) (*Report, error) {
	st, err := newSimState(g, cfg)
	if err != nil {
		return nil, err
	}
	var ready readyQueue
	for id, t := range g.tasks {
		if st.tasks[id].remaining == 0 {
			ready.push(t)
		}
	}
	for st.completed < len(g.tasks) {
		if ready.empty() {
			return nil, fmt.Errorf("taskrt: task graph deadlock (cycle?) with %d tasks pending", len(g.tasks)-st.completed)
		}
		if err := st.step(ready.pop(), ready.push); err != nil {
			return nil, err
		}
	}
	return st.report(), nil
}

// step schedules one ready task: it picks the unit, runs the attempt and
// pushes what became ready — the task's released dependents, or after a
// failed attempt the task itself.
func (st *simState) step(t *Task, push func(*Task)) error {
	rec := &st.tasks[t.id]
	u, err := st.pickUnit(t, rec.readyAt)
	if err != nil {
		return err
	}
	end, fail, err := st.execute(t, u, rec.readyAt)
	if err != nil {
		return err
	}
	if fail != nil {
		// Failure recovery: re-queue the task with capped exponential
		// backoff. The failed unit is blacklisted (permanently or until
		// recovery), so the retry lands on a different unit — and when
		// the whole PU class is gone, on a different implementation
		// variant (GPU codelet → CPU variant) via compatibleUnits.
		rec.attempt++
		n := rec.attempt
		st.failedAttempts++
		if n == 1 {
			st.retriedTasks++
		}
		if n >= st.policy.MaxAttempts {
			return fmt.Errorf("taskrt: task %q (%s) failed %d attempts, last on %s; giving up",
				t.Codelet.Name, t.Label, n, fail.on.hw.ID)
		}
		retryAt := fail.at + sim.Time(Backoff(retryBackoffBase, retryBackoffCap, n))
		if st.cfg.Trace != nil {
			st.cfg.Trace.Record(trace.Event{
				Kind: trace.Retry, Unit: fail.on.hw.ID, Label: taskLabel(t),
				Start: float64(fail.at), End: float64(retryAt),
				TaskID: t.id, Attempt: n, Worker: fail.on.idx,
			})
		}
		rec.readyAt = retryAt
		push(t)
		return nil
	}
	st.makespan = max(st.makespan, end)
	st.completed++
	for _, d := range st.graph.succOf(t.id) {
		dr := &st.tasks[d]
		dr.readyAt = max(dr.readyAt, end)
		dr.remaining--
		if dr.remaining == 0 {
			push(st.graph.tasks[d])
		}
	}
	return nil
}

// report sums the finished run up.
func (st *simState) report() *Report {
	rep := &Report{
		Mode:            Sim,
		Scheduler:       st.cfg.Scheduler,
		Tasks:           len(st.tasks),
		MakespanSeconds: float64(st.makespan),
		TransferBytes:   st.transferBytes,
		TransferSeconds: st.transferSecs,
		TransferCount:   st.transferCount,
		FailedAttempts:  st.failedAttempts,
		RetriedTasks:    st.retriedTasks,
		WatchdogTrips:   st.watchdogTrips,
	}
	rep.Blacklisted = append(rep.Blacklisted, st.failedUnits...)
	sort.Strings(rep.Blacklisted)
	for _, su := range st.units {
		rep.PerUnit = append(rep.PerUnit, UnitStats{
			ID: su.hw.ID, Arch: su.hw.Arch, Tasks: su.tasks, BusySeconds: float64(su.res.Busy()),
		})
	}
	return rep
}

// taskLabel names a task in traces.
func taskLabel(t *Task) string {
	if t.Label != "" {
		return t.Label
	}
	return t.Codelet.Name
}

// baseUnitID maps a quantity-expanded instance id back to the descriptor id
// it was expanded from ("host.3" → "host"); ids without an instance suffix
// map to themselves.
func baseUnitID(id string) string {
	for i := len(id) - 1; i > 0; i-- {
		c := id[i]
		if c >= '0' && c <= '9' {
			continue
		}
		if c == '.' && i < len(id)-1 {
			return id[:i]
		}
		break
	}
	return id
}

// unitAllowed reports whether a unit id is one of the named PUs or a
// quantity-expanded instance of one ("host" names "host.3").
func unitAllowed(id string, pus []string) bool {
	return slices.Contains(pus, id) || slices.Contains(pus, baseUnitID(id))
}

// kernelSeconds returns the virtual execution time of t's implementation on
// unit u, honouring per-codelet speed factors.
func kernelSeconds(m *simhw.Machine, t *Task, u *simhw.Unit) float64 {
	im := t.Codelet.ImplFor(u.Arch)
	factor := im.SpeedFactor
	if factor <= 0 {
		factor = 1
	}
	return m.KernelTime(u, t.Flops/factor)
}

// watchdogTimeout derives the hang-detection timeout for task t on unit su:
// per-codelet perfmodel estimate × watchdogFactor when history exists, else
// the simulator's own cost model × watchdogFactor.
func (st *simState) watchdogTimeout(t *Task, su *simUnit) float64 {
	est := kernelSeconds(st.machine, t, su.hw)
	if st.cfg.Models != nil && t.Flops > 0 {
		if e, ok := st.cfg.Models.Model(t.Codelet.Name, su.hw.Arch).Estimate(t.Flops); ok {
			est = e
		}
	}
	return est * watchdogFactor
}

// stage is the one walk over t's read operands that are not valid on su's
// memory node (pure writes need no inbound copy): it returns when the last of
// them is there, for a task that cannot start before ready. Committing, each
// copy comes from its cheapest source and is booked on the node's DMA engine,
// where copies queue one behind the other. Predicting — dmda's cost function —
// each missing operand is priced as if it alone followed the engine's current
// horizon. The prediction stays optimistic on purpose: serialising it as the
// commit does moved Figure 5 at tile 256 from 4.9596 s to 5.6994 s (GPU tasks
// 21 258 → 19 539), because every GPU bid then carries its whole operand
// queue and tiles drain to the CPUs.
func (st *simState) stage(t *Task, su *simUnit, ready sim.Time, commit bool) (sim.Time, error) {
	node := su.hw.MemNode
	ready = max(ready, su.downUntil)
	dataReady := ready
	for _, a := range t.Accesses {
		if !a.Mode.Reads() || st.copies(a.Handle)[node] {
			continue
		}
		src, dur, err := st.cheapestSource(a.Handle, node)
		if err != nil {
			return 0, err
		}
		var arrives sim.Time
		if commit {
			arrives = st.transfer(a.Handle, src, node, ready, dur, t.id, su.idx)
		} else {
			arrives = max(ready, st.dma[node].Available()) + sim.Time(dur)
		}
		dataReady = max(dataReady, arrives)
	}
	return dataReady, nil
}

// transfer books one copy of h from src to dst, dur seconds long and starting
// no earlier than ready, on dst's DMA engine; it returns the arrival time.
// taskID and worker attribute the traced span (worker -1: no unit waits).
func (st *simState) transfer(h *Handle, src, dst int, ready sim.Time, dur float64, taskID, worker int) sim.Time {
	s, e := st.dma[dst].Acquire(ready, sim.Time(dur))
	st.transferBytes += h.Bytes
	st.transferSecs += dur
	st.transferCount++
	if st.cfg.Trace != nil {
		st.cfg.Trace.Record(trace.Event{
			Kind: trace.Transfer, Unit: st.nodes[dst],
			Label: h.Name, Start: float64(s), End: float64(e), Bytes: h.Bytes,
			TaskID: taskID, Worker: worker, From: st.nodes[src],
		})
	}
	return e
}

// taskSpan is the trace span of the current attempt of t on su.
func (st *simState) taskSpan(kind trace.Kind, t *Task, su *simUnit, start, end sim.Time) trace.Event {
	return trace.Event{
		Kind: kind, Unit: su.hw.ID, Label: taskLabel(t),
		Start: float64(start), End: float64(end),
		TaskID: t.id, ParentIDs: st.graph.depsOf(t.id), Attempt: st.tasks[t.id].attempt, Worker: su.idx,
	}
}

// execute commits task t onto unit su: stages the required transfers,
// occupies the unit and updates coherence. It returns the completion time,
// or a non-nil simFailure when an injected fault killed the attempt.
func (st *simState) execute(t *Task, su *simUnit, ready sim.Time) (sim.Time, *simFailure, error) {
	dataReady, err := st.stage(t, su, ready, true)
	if err != nil {
		return 0, nil, err
	}
	dur := sim.Time(kernelSeconds(st.machine, t, su.hw))
	start := max(dataReady, su.res.Available())
	su.started++
	if st.ft {
		if fail, err := st.checkFault(t, su, start, dur); fail != nil || err != nil {
			return 0, fail, err
		}
	}
	// dataReady already accounts for downUntil, so Acquire's start matches
	// the start the fault check used.
	_, end := su.res.Acquire(dataReady, dur)
	su.tasks++
	su.hist.Observe(float64(dur))
	if st.cfg.Trace != nil {
		st.cfg.Trace.Record(st.taskSpan(trace.Task, t, su, start, end))
	}
	// Commit coherence after execution.
	node := su.hw.MemNode
	for _, a := range t.Accesses {
		row := st.copies(a.Handle)
		if !a.Mode.Writes() {
			row[node] = true
			continue
		}
		clear(row)
		row[node] = true
		if st.ft && node != 0 {
			// Checkpoint device writes to host RAM so recovery never depends
			// on state held by a unit that may die: the write-back is charged
			// to the host DMA engine and counted as a transfer. With no route
			// the node keeps the only copy.
			if wb, err := st.machine.TransferTime(node, 0, a.Handle.Bytes); err == nil {
				st.transfer(a.Handle, node, 0, end, wb, t.id, -1)
				row[0] = true
			}
		}
	}
	return end, nil, nil
}

// checkFault fires the unit's next injected fault if this attempt triggers
// it: the unit is occupied for the wasted window, blacklisted (with optional
// recovery), its device memory is invalidated, and the failure is traced and
// mirrored into the dynamic tracker.
func (st *simState) checkFault(t *Task, su *simUnit, start, dur sim.Time) (*simFailure, error) {
	f := su.faults.pending()
	if f == nil {
		return nil, nil
	}
	var detect sim.Time
	switch {
	case f.AfterTasks > 0 && su.started >= f.AfterTasks:
		// The kernel crashes halfway through its run.
		detect = start + dur/2
	case f.AtTime > 0 && float64(start+dur) > f.AtTime:
		// The unit dies at AtTime: mid-kernel when the attempt spans it,
		// at launch when the unit was already dead.
		detect = max(sim.Time(f.AtTime), start)
	default:
		return nil, nil
	}
	if f.Hang {
		// A hung kernel is only detected when the watchdog timeout (per-
		// codelet estimate × factor) expires, so hangs waste more of the
		// unit than crashes — but can never block the run forever.
		detect = start + sim.Time(st.watchdogTimeout(t, su))
		st.watchdogTrips++
	}
	su.faults.consume()
	if wasted := detect - start; wasted > 0 {
		su.res.Acquire(start, wasted)
	}
	// Blacklist the unit, for good or until it recovers. Tracker
	// notifications are emitted in engine processing order; the trace events
	// carry the virtual times.
	recovers := f.RecoverAfter > 0
	if recovers {
		su.downUntil = detect + sim.Time(f.RecoverAfter)
	} else {
		su.dead = true
		st.failedUnits = append(st.failedUnits, su.hw.ID)
		st.candsFor = nil // the kept candidate list may hold su
	}
	if st.cfg.Trace != nil {
		st.cfg.Trace.Record(st.taskSpan(trace.Failure, t, su, start, detect))
		instant := func(kind trace.Kind, at sim.Time) {
			st.cfg.Trace.Record(trace.Event{
				Kind: kind, Unit: su.hw.ID, Start: float64(at), End: float64(at),
				TaskID: trace.NoTask, Worker: su.idx,
			})
		}
		instant(trace.Blacklist, detect)
		if recovers {
			instant(trace.Recover, su.downUntil)
		}
	}
	if st.cfg.Tracker != nil {
		// Best effort: the tracker only knows descriptor-level ids.
		if st.cfg.Tracker.SetOffline(su.hw.ID) == nil && recovers {
			_ = st.cfg.Tracker.SetOnline(su.hw.ID)
		}
	}
	// Never reuse state on the dead unit: every copy in its device memory is
	// dropped, and later readers re-issue transfers from a surviving MSI
	// copy (host RAM holds one for every handle thanks to write-back).
	// Node 0 is shared host RAM — a dying CPU core does not lose it.
	if node := su.hw.MemNode; node != 0 {
		if err := st.invalidateNode(node); err != nil {
			return nil, err
		}
	}
	return &simFailure{at: detect, on: su}, nil
}

// invalidateNode drops every valid copy held by a failed device's memory.
func (st *simState) invalidateNode(node int) error {
	for _, h := range st.graph.handles {
		row := st.copies(h)
		if !row[node] {
			continue
		}
		row[node] = false
		if !slices.Contains(row, true) {
			return fmt.Errorf("taskrt: handle %q lost its last valid copy with memory node %d", h.Name, node)
		}
	}
	return nil
}

// cheapestSource picks the valid copy of h that is cheapest to move to dst
// (the lowest node among equals).
func (st *simState) cheapestSource(h *Handle, dst int) (src int, seconds float64, err error) {
	best := -1
	bestT := math.Inf(1)
	for node, ok := range st.copies(h) {
		if !ok {
			continue
		}
		d, err := st.machine.TransferTime(node, dst, h.Bytes)
		if err != nil {
			continue
		}
		if d < bestT {
			bestT, best = d, node
		}
	}
	if best < 0 {
		return 0, 0, fmt.Errorf("taskrt: no valid copy of handle %q reachable from node %d", h.Name, dst)
	}
	return best, bestT, nil
}

// bid is dmda's estimate of a task on a unit short of the unit's own horizon:
// when the task's operands are on the unit's node, and how long its kernel
// runs there. Every unit of a class that is up at the task's ready time makes
// the same bid.
type bid struct {
	dataReady, kernel sim.Time
}

// finish is the earliest finish time of b on su: the kernel starts once the
// operands are in and su is free.
func (b bid) finish(su *simUnit) sim.Time {
	return max(b.dataReady, su.availAt()) + b.kernel
}

// classBid is one class's bid and the pick (simState.picks) it was priced for.
type classBid struct {
	bid
	pick int
}

// price is t's bid on su for a task that cannot start before ready, given
// current resource horizons: with finish, the dmda cost function.
func (st *simState) price(t *Task, su *simUnit, ready sim.Time) bid {
	dataReady, err := st.stage(t, su, ready, false)
	if err != nil {
		dataReady = sim.Time(math.Inf(1)) // no route to su's node: never the best
	}
	return bid{dataReady, sim.Time(kernelSeconds(st.machine, t, su.hw))}
}

// compatibleUnits returns the units that have an implementation for t,
// satisfy the task's Where placement constraint and are not blacklisted. The
// result is valid until the next call. Without Where it depends on t's
// codelet alone, so it is kept for the next such task of that codelet until a
// unit dies (checkFault).
func (st *simState) compatibleUnits(t *Task) []*simUnit {
	if len(t.Where) == 0 && t.Codelet == st.candsFor {
		return st.cands
	}
	out := st.cands[:0]
	for _, su := range st.units {
		if su.dead {
			continue // blacklisted by a failure (or offline in the tracker)
		}
		if t.Codelet.ImplFor(su.hw.Arch) == nil {
			continue
		}
		if len(t.Where) > 0 && !unitAllowed(su.hw.ID, t.Where) {
			continue
		}
		out = append(out, su)
	}
	st.cands, st.candsFor = out, nil
	if len(t.Where) == 0 {
		st.candsFor = t.Codelet
	}
	return out
}

// readyItem is a waiting task beside the keys it is ordered by, copied out of
// the task so that a comparison reads the queue's own array only.
type readyItem struct {
	t    *Task
	prio int // Task.Priority
	id   int // Task.ID()
}

// before reports whether a is taken ahead of b.
func (a readyItem) before(b readyItem) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.id < b.id
}

// readyQueue hands out the tasks whose dependencies have completed, highest
// Priority first and equal priorities by id, under both policies. The order is
// total, so a run does not depend on how the queue is laid out, and a retried
// task re-enters under its own id. It is a binary heap on before, O(log ready)
// a task however wide the graph (a tiled GEMM keeps every C chain ready at
// once).
type readyQueue struct {
	items []readyItem
}

func (q *readyQueue) empty() bool { return len(q.items) == 0 }

func (q *readyQueue) push(t *Task) {
	it := readyItem{t: t, prio: t.Priority, id: t.id}
	i := len(q.items)
	q.items = append(q.items, it)
	for i > 0 && it.before(q.items[(i-1)/2]) {
		q.items[i] = q.items[(i-1)/2]
		i = (i - 1) / 2
	}
	q.items[i] = it
}

// pop removes and returns the next task of a non-empty queue.
func (q *readyQueue) pop() *Task {
	n := len(q.items) - 1
	top, last := q.items[0].t, q.items[n]
	q.items = q.items[:n]
	// Sift the last item down from the root.
	i := 0
	for child := 1; child < n; child = 2*i + 1 {
		if child+1 < n && q.items[child+1].before(q.items[child]) {
			child++
		}
		if !q.items[child].before(last) {
			break
		}
		q.items[i] = q.items[child]
		i = child
	}
	if n > 0 {
		q.items[i] = last
	}
	return top
}

// pickUnit chooses the unit for task t.
func (st *simState) pickUnit(t *Task, ready sim.Time) (*simUnit, error) {
	cands := st.compatibleUnits(t)
	if len(cands) == 0 {
		return nil, fmt.Errorf("taskrt: no unit can run codelet %q (impls %v; %d unit(s) blacklisted)",
			t.Codelet.Name, t.Codelet.Archs(), len(st.failedUnits))
	}
	if st.cfg.Scheduler == "ws" {
		// Work stealing: tasks are dealt round-robin to per-unit queues at
		// submission; an idle unit steals when the owner is backed up. In
		// list-scheduling terms: run on the owner unless another compatible
		// unit would start strictly earlier.
		owner := cands[t.id%len(cands)]
		best := slices.MinFunc(cands, func(a, b *simUnit) int { return cmp.Compare(a.availAt(), b.availAt()) })
		if owner.availAt() <= best.availAt() || owner.availAt() <= ready {
			return owner, nil
		}
		return best, nil
	}
	// dmda: the unit with the earliest estimated finish, transfers included,
	// the first in unit order among equals. A class's bid is priced once per
	// pick; a unit still blacklisted at ready stages from its recovery instead,
	// so it is priced alone.
	st.picks++
	var best *simUnit
	var bestEFT sim.Time
	for _, su := range cands {
		var eft sim.Time
		if su.downUntil > ready {
			eft = st.price(t, su, ready).finish(su)
		} else {
			cb := &st.bids[su.class]
			if cb.pick != st.picks {
				cb.bid, cb.pick = st.price(t, su, ready), st.picks
			}
			eft = cb.finish(su)
		}
		if best == nil || eft < bestEFT {
			best, bestEFT = su, eft
		}
	}
	return best, nil
}
