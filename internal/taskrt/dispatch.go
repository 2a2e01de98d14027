package taskrt

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/placement"
)

// parkSlot is where one worker sleeps when every queue is empty. The owner
// marks parked before its last look at the queues; a pusher that finds the
// mark claims the slot by clearing it and only then sends the one wake token,
// handing over a task first when it has one for the sleeper (ws). The owner
// sets the mark before its last look and a pusher reads it after its tasks
// are visible, so either the last look finds the tasks or the pusher finds
// the mark: no wake is lost. In steady state — workers busy — a pusher only
// reads the flags and a take writes no shared word.
type parkSlot struct {
	parked atomic.Bool
	wake   chan struct{} // one token: only the slot's claimant sends
	// handed is a task a pusher gave this worker as it woke it, from the
	// pusher's worker index (-1 outside the pool); from is written before
	// handed and read after it. The owner's next take returns it.
	handed atomic.Pointer[Task]
	from   int
	_      [cacheLine]byte
}

// park marks the owner as sleeping; it must look at the queues once more,
// then cancel or sleep.
func (s *parkSlot) park() { s.parked.Store(true) }

// cancel takes back a park whose last look found a task. When a pusher
// claimed the slot meanwhile, its token is on the way and is received here,
// so the next park starts empty; a task it handed over stays for the next
// take.
func (s *parkSlot) cancel() {
	if !s.parked.CompareAndSwap(true, false) {
		<-s.wake
	}
}

// sleep blocks a parked worker until a pusher wakes it. It returns false
// when done or abort closes first — the run is over.
func (s *parkSlot) sleep(done, abort <-chan struct{}) bool {
	select {
	case <-s.wake:
		return true
	case <-done:
		return false
	case <-abort:
		return false
	}
}

// claim wakes the slot's owner if it is parked, handing it t (when not nil)
// from worker from, and reports whether it did. It writes the slot only when
// the owner is parked.
func (s *parkSlot) claim(t *Task, from int) bool {
	if !s.parked.Load() || !s.parked.CompareAndSwap(true, false) {
		return false
	}
	if t != nil {
		s.from = from
		s.handed.Store(t)
	}
	s.wake <- struct{}{}
	return true
}

// sleepers is the pool's parking slots, one a worker.
type sleepers []parkSlot

func newSleepers(workers int) sleepers {
	p := make(sleepers, workers)
	for w := range p {
		p[w].wake = make(chan struct{}, 1)
	}
	return p
}

// wake rouses up to n parked workers for n tasks just made visible: first
// before any other (first < 0: none preferred), then the others in index
// order. Waking others when first is awake keeps a task on a busy, offline
// or exited owner's queue from waiting while the pool sleeps.
func (p sleepers) wake(first, n int) {
	if first >= 0 && n > 0 && p[first].claim(nil, -1) {
		n--
	}
	for w := 0; w < len(p) && n > 0; w++ {
		if w != first && p[w].claim(nil, -1) {
			n--
		}
	}
}

// handOff gives ts's leading tasks, one each, to the workers parked now, in
// index order, and returns how many it gave.
func (p sleepers) handOff(from int, ts []*Task) int {
	k := 0
	for w := 0; w < len(p) && k < len(ts); w++ {
		if p[w].claim(ts[k], from) {
			k++
		}
	}
	return k
}

// dispatcher abstracts how ready tasks reach real-engine workers. A worker
// calls take; when it returns nil every queue was empty, and the worker
// parks on its slot: it marks the slot, calls take once more, and then
// either cancels the park or sleeps until a pusher wakes it. Every push
// looks for sleepers after its tasks are visible and wakes one for each task
// it queued, so a task never waits while a worker that could take it sleeps.
// pushBatch amortises the synchronisation: one queue pass and one look for
// sleepers for the whole batch.
//
// The Real engine implements exactly two policies, "ws" (the default) and
// "dmda"; New rejects every other Config.Scheduler name in Real mode.
//
//   - stealDispatcher gives each worker a Chase-Lev deque plus one shared
//     injector for pushes from outside the pool. A worker that completes a
//     task hands the leading newly-ready dependents to parked workers and
//     pushes the rest onto its own deque, popping them back LIFO — the
//     locality hint: dependents run on the worker that just produced their
//     inputs, with their data still cache-hot. Idle workers first drain the
//     injector, then steal FIFO from victims.
//   - dmdaDispatcher routes every push to the worker with the earliest
//     model-predicted finish time (StarPU's dmda policy on the real engine),
//     charging interconnect-modelled data-transfer time for handles that are
//     not resident on the candidate's memory node, and wakes that worker
//     first. See the type comment.
type dispatcher interface {
	// push makes t runnable. from identifies the pushing worker so the task
	// can land on its own deque; from < 0 marks pushes from outside the pool
	// (initial seeding, requeue timers), which go to the shared injector.
	push(from int, t *Task)
	// pushBatch makes every task in ts runnable with one synchronisation
	// round: tasks are enqueued first, then sleepers are woken for them
	// (dmda publishes a wide batch in pieces of dmdaShare tasks a worker,
	// each waking after its tasks are enqueued). The callee may reorder ts
	// but does not retain it — callers may reuse it.
	pushBatch(from int, ts []*Task)
	// slot is worker w's parking slot.
	slot(w int) *parkSlot
	// take returns a task for worker w, or nil when every queue is empty or
	// abort closed. The second result is the victim worker the task was
	// stolen (or handed over) from, or -1 when it came from the worker's own
	// queue or the shared pool — steal provenance for traces.
	take(w int, abort <-chan struct{}) (*Task, int)
	// stolen reports how many tasks worker w has obtained by stealing.
	stolen(w int) int
	// depth approximates worker w's queue length (w < 0: the shared queue).
	// A racy snapshot for the metrics sampler, never for control flow.
	depth(w int) int
	// finished tells the dispatcher worker w is done with t (success or
	// failure), releasing any outstanding-work accounting. ran is false when
	// the attempt never executed the kernel (injected fault at launch), so
	// observed-time statistics stay honest.
	finished(w int, t *Task, d time.Duration, ran bool)
	// setOffline tells a dispatcher that routes at push time whether the
	// fault-tolerance layer has blacklisted worker w. Queues of offline
	// workers stay stealable either way.
	setOffline(w int, offline bool)
}

// stealDispatcher: per-worker Chase-Lev deques, a shared injector, and
// per-worker steal counters (owner-written, merged after shutdown).
type stealDispatcher struct {
	deques []*wsDeque
	steals []int64
	sleep  sleepers

	injMu sync.Mutex
	inj   []*Task
}

func newStealDispatcher(workers, tasks int) *stealDispatcher {
	d := &stealDispatcher{
		deques: make([]*wsDeque, workers),
		steals: make([]int64, workers),
		sleep:  newSleepers(workers),
	}
	for w := range d.deques {
		d.deques[w] = newWSDeque(tasks)
	}
	return d
}

// push is the batch of one.
func (d *stealDispatcher) push(from int, t *Task) {
	one := [1]*Task{t}
	d.pushBatch(from, one[:])
}

// pushBatch hands the batch's leading tasks to parked workers, one each, in
// worker-index order, before the pusher runs any of them: on a deep chain
// the dependent moves to a worker that was idle rather than queue behind the
// releaser. The rest go onto the pusher's deque (or the injector), and
// sleepers that parked meanwhile are woken for them.
func (d *stealDispatcher) pushBatch(from int, ts []*Task) {
	ts = ts[d.sleep.handOff(from, ts):]
	if len(ts) == 0 {
		return
	}
	if from >= 0 {
		d.deques[from].pushAll(ts)
	} else {
		d.injMu.Lock()
		d.inj = append(d.inj, ts...)
		d.injMu.Unlock()
	}
	d.sleep.wake(-1, len(ts))
}

func (d *stealDispatcher) slot(w int) *parkSlot { return &d.sleep[w] }

// popInjector removes the oldest injected task.
func (d *stealDispatcher) popInjector() *Task {
	d.injMu.Lock()
	defer d.injMu.Unlock()
	if len(d.inj) == 0 {
		return nil
	}
	t := d.inj[0]
	d.inj = d.inj[1:]
	return t
}

// take serves worker w: a task handed over as it was woken, its own deque,
// the injector, then a steal sweep. A hand-off counts as a steal from the
// worker that released it.
func (d *stealDispatcher) take(w int, _ <-chan struct{}) (*Task, int) {
	if s := &d.sleep[w]; s.handed.Load() != nil {
		t := s.handed.Swap(nil)
		if s.from >= 0 {
			d.steals[w]++
		}
		return t, s.from
	}
	if t := d.deques[w].pop(); t != nil {
		return t, -1
	}
	if t := d.popInjector(); t != nil {
		return t, -1
	}
	// Steal sweep, starting at the next worker so victims differ across
	// thieves. Blacklisted workers' deques stay stealable, so a dying
	// worker never strands its queued tasks.
	for i := 1; i < len(d.deques); i++ {
		victim := (w + i) % len(d.deques)
		if t := d.deques[victim].steal(); t != nil {
			d.steals[w]++
			return t, victim
		}
	}
	return nil, -1
}

func (d *stealDispatcher) stolen(w int) int { return int(d.steals[w]) }

func (d *stealDispatcher) finished(int, *Task, time.Duration, bool) {}

func (d *stealDispatcher) setOffline(int, bool) {} // nothing is routed: thieves find the work

func (d *stealDispatcher) depth(w int) int {
	if w >= 0 {
		return d.deques[w].size()
	}
	d.injMu.Lock()
	defer d.injMu.Unlock()
	return len(d.inj)
}

// maxNodes bounds the memory-node count the data-aware machinery handles:
// handle residency is a 64-bit bitmask (one bit per platform master).
// Platforms with more masters than bits fall back to transfer-blind dmda.
const maxNodes = 64

// predSnap caches one (codelet, arch, size) perfmodel estimate together with
// the model version it was computed at. Placement revalidates with two loads
// (version + flops) and recomputes only after a Record bumped the version.
type predSnap struct {
	version int64
	flops   float64
	nanos   int64
	ok      bool
}

// predEntry is the per-codelet estimate cache, indexed by distinct-arch
// slot. It is built once per run (construction walks the task set, the only
// map access on the dmda path) and shared by every task of the codelet, so a
// steady-state placement decision touches no maps and takes no locks.
type predEntry struct {
	models []*perfmodel.Model
	snaps  []atomic.Pointer[predSnap]
}

// cacheLine is the padding that keeps one worker's owner-written fields off
// the cache lines other workers write.
const cacheLine = 64

// dmdaWorker is one worker's routing state under the dmda dispatcher. The
// queue is the same Chase-Lev deque the ws dispatcher uses, with the roles
// flipped: arbitrary producers push at the bottom serialised by pushMu,
// the owner consumes oldest-first through the lock-free top end (steal —
// placement order, matching the EFT accounting), and thieves take the
// newest task at the bottom (pop) under the victim's pushMu. All bottom-end
// operations are mutex-serialised, so the single-owner requirement of the
// Chase-Lev protocol holds; the top end keeps its usual CAS race handling.
//
// The fields come in two groups a cache line apart: what placers and thieves
// write (pushMu, outstanding) beside what they only read, then what the owner
// alone writes on every task.
type dmdaWorker struct {
	pushMu sync.Mutex
	// outstanding is the predicted nanoseconds of work queued on or running
	// on this worker: the placement.Candidate.Charge of every task placed
	// here and not yet finished or stolen.
	outstanding atomic.Int64
	q           *wsDeque
	arch        string
	archIdx     int // index into the dispatcher's distinct-arch tables
	node        int // memory node (platform master index) this worker lives on
	offline     atomic.Bool
	_           [cacheLine]byte

	// busyNanos/completed feed the observed-mean fallback estimate; summed
	// over the pool they are the cold estimate and the stall valve's progress.
	busyNanos atomic.Int64
	completed atomic.Int64
	steals    atomic.Int64
	// stallDone/stallSince arm the steal-force valve. They track, across
	// take calls, when this worker's sweeps started being declined with no
	// pool-wide completion progress since. Owner-goroutine state: no
	// atomics needed.
	stallDone  int64
	stallSince time.Time
	_          [cacheLine]byte
}

// dmdaDispatcher implements StarPU's dmda (deque model, data aware) policy
// on the real engine: push routes every task to the online worker with the
// earliest predicted finish time. The rule itself — score, estimate fallback
// chain, tie-break, what is charged to a backlog — is internal/placement's;
// this type supplies the values it is applied to. Backlogs and observed
// times are per-worker atomics; the model estimate comes from the
// per-codelet predSnap cache; the transfer term prices each read operand not
// resident on the candidate's memory node over the cheapest link from a node
// that holds it. Residency is tracked per handle as a bitmask of memory
// nodes: a write moves the handle to the writer's node, a placement marks
// the chosen node resident ahead of dequeue (prefetch). Workers whose own
// queue runs dry steal from victims, so a misprediction costs a steal (and
// its transfer charge) rather than idle time.
type dmdaDispatcher struct {
	workers []dmdaWorker
	sleep   sleepers
	rr      atomic.Uint64 // start cursor for placement.Pick: varies tie-breaks across pushes

	// batches is the pushers' scratch: one per worker, for the dependents
	// its completions release, and a last one for pushes from outside the
	// pool (seeding, requeue timers), which take extMu to use it.
	batches []dmdaBatch
	extMu   sync.Mutex

	// Data-awareness tables, fixed at construction. links[i][j] prices a
	// transfer from node i to node j; dataAware is false when the platform
	// declares no routes (or has >maxNodes masters), which zeroes the
	// transfer term and skips residency upkeep entirely.
	dataAware bool
	links     [][]placement.Link

	// taskrt_sched_decisions_total{policy="dmda"}, indexed by placement.Source.
	decisions   [placement.Cold + 1]*metrics.Counter
	prefetches  *metrics.Counter
	xferSeconds *metrics.Counter
	// onPlace, when non-nil, observes every placement (trace recording).
	onPlace func(w int, t *Task, c placement.Candidate)

	// By task id: pred is the estimate cache of the task's codelet (nil when
	// the model cannot answer for it), est what placing the task charged to a
	// worker's backlog until finished releases it — guarded by the owning
	// queue's hand-off, never concurrent.
	pred []*predEntry
	est  []int64
	// resident is, by handle id, the bitmask of the memory nodes (platform
	// master indices) holding a valid copy; zero reads as node 0, host RAM,
	// where every datum starts. A write collapses it to the writer's node; a
	// placement sets the chosen node's bit ahead of dequeue (the prefetch
	// hint).
	resident []atomic.Uint64
}

// newDmdaDispatcher builds the routing state: per-worker deques sized for
// the whole task set, the distinct-arch table, the node-to-node link
// matrix, the per-codelet estimate caches (every task's pred is looked up
// here — the only map lookups on the dmda path happen now), and the tables
// by task and by handle id.
func newDmdaDispatcher(archs []string, nodes []int, links [][]placement.Link, tasks []*Task, handles []*Handle, models *perfmodel.Store) *dmdaDispatcher {
	d := &dmdaDispatcher{
		workers:     make([]dmdaWorker, len(archs)),
		sleep:       newSleepers(len(archs)),
		links:       links,
		prefetches:  rtm.prefetches,
		xferSeconds: rtm.schedTransfer,
		pred:        make([]*predEntry, len(tasks)),
		est:         make([]int64, len(tasks)),
		resident:    make([]atomic.Uint64, len(handles)),
	}
	for src := range d.decisions {
		d.decisions[src] = rtm.schedDecisions.With("dmda", placement.Source(src).String())
	}
	for i := range links {
		for j := range links[i] {
			if i != j && links[i][j] != (placement.Link{}) {
				d.dataAware = true
			}
		}
	}
	if len(links) > maxNodes {
		d.dataAware = false
	}
	distinct := make([]string, 0, 4)
	slot := make(map[string]int, 4)
	for w := range d.workers {
		wk := &d.workers[w]
		wk.arch = archs[w]
		if w < len(nodes) {
			wk.node = nodes[w]
		}
		ai, ok := slot[archs[w]]
		if !ok {
			ai = len(distinct)
			slot[archs[w]] = ai
			distinct = append(distinct, archs[w])
		}
		wk.archIdx = ai
		wk.q = newWSDeque(len(tasks))
		wk.stallDone = -1
	}
	d.batches = make([]dmdaBatch, len(archs)+1)
	shares := make([]*Task, len(d.batches)*len(archs)*dmdaShare)
	for i := range d.batches {
		b := &d.batches[i]
		b.workers = make([]batchWorker, len(archs))
		b.preds = make([]predMemo, len(distinct))
		for w := range b.workers {
			bw := &b.workers[w]
			bw.node, bw.archIdx = d.workers[w].node, d.workers[w].archIdx
			bw.placed, shares = shares[:0:dmdaShare], shares[dmdaShare:]
		}
	}
	byCodelet := make(map[*Codelet]*predEntry)
	for _, t := range tasks {
		if t.Flops <= 0 || models == nil {
			continue
		}
		pe := byCodelet[t.Codelet]
		if pe == nil {
			pe = &predEntry{
				models: make([]*perfmodel.Model, len(distinct)),
				snaps:  make([]atomic.Pointer[predSnap], len(distinct)),
			}
			for ai, arch := range distinct {
				pe.models[ai] = models.Model(t.Codelet.Name, arch)
			}
			byCodelet[t.Codelet] = pe
		}
		d.pred[t.id] = pe
	}
	return d
}

// candidate is a worker's bid for a task: the model's estimate s (nil: the
// task's codelet has no model) when it has an answer, else observed (see
// observed), with the given transfer time.
func candidate(s *predSnap, xfer int64, observed placement.Candidate) placement.Candidate {
	if s != nil && s.ok {
		return placement.Candidate{Exec: s.nanos, Xfer: xfer, Source: placement.Model}
	}
	observed.Xfer = xfer
	return observed
}

// estimate is the model's answer for flops on arch slot ai. It is lock-free
// in steady state: the cached snapshot is valid until a Record bumps the
// model version.
func (pe *predEntry) estimate(ai int, flops float64) *predSnap {
	v := pe.models[ai].Version()
	s := pe.snaps[ai].Load()
	if s == nil || s.version != v || s.flops != flops {
		sec, ok := pe.models[ai].Estimate(flops)
		s = &predSnap{version: v, flops: flops, nanos: int64(sec * 1e9), ok: ok}
		pe.snaps[ai].Store(s)
	}
	return s
}

// observed is a worker's bid when the model has no answer: the rest of
// placement.Estimate's chain, the worker's own observed mean (own), else
// the pool's. Xfer is left 0.
func observed(own, pool placement.History) placement.Candidate {
	exec, src := placement.Estimate(0, false, own, pool)
	return placement.Candidate{Exec: exec, Source: src}
}

// history is worker w's observed total.
func (d *dmdaDispatcher) history(w int) placement.History {
	wk := &d.workers[w]
	return placement.History{Nanos: wk.busyNanos.Load(), Count: wk.completed.Load()}
}

// pool sums the workers' observed histories: the cold estimate, and through
// its Count the completion progress the stall valve watches. Only those two
// read it, so a completion writes its own worker's counters alone.
func (d *dmdaDispatcher) pool() placement.History {
	var h placement.History
	for w := range d.workers {
		own := d.history(w)
		h.Nanos += own.Nanos
		h.Count += own.Count
	}
	return h
}

// transferToNode models the nanoseconds needed to make t's read operands
// resident on the given memory node: for each handle not already resident
// there, the cheapest declared route from any node that holds it.
func (d *dmdaDispatcher) transferToNode(t *Task, node int) int64 {
	if !d.dataAware {
		return 0
	}
	var total int64
	for _, a := range t.Accesses {
		h := a.Handle
		if !a.Mode.Reads() || h.Bytes <= 0 {
			continue
		}
		mask := d.residentMask(h.id)
		if mask&(1<<uint(node)) != 0 {
			continue
		}
		best := int64(-1)
		for src := range d.links {
			if mask&(1<<uint(src)) == 0 {
				continue
			}
			if cost := d.links[src][node].Nanos(h.Bytes); best < 0 || cost < best {
				best = cost
			}
		}
		if best > 0 {
			total += best
		}
	}
	return total
}

// dmdaShare is the most tasks a batch holds for one worker before it
// publishes them. A tiled factorization's batches (a panel's dependents)
// stay under it at the tile counts the benchmark runs, so each worker's
// share lands with one publish. A wider batch (dispatch-fork's 19 999
// dependents) publishes every dmdaShare tasks a worker, waking sleepers:
// holding a share the size of the batch needs a scratch a fresh dispatcher
// grows again every run, and the other workers would wait for all of it.
const dmdaShare = 64

// dmdaBatch is one pusher's scratch for pushBatch: the snapshot of the pool
// a batch is priced against, what the batch adds to it, and the tasks it
// placed on each worker until they are published. Its arrays are made with
// the dispatcher, so a batch allocates nothing.
type dmdaBatch struct {
	workers   []batchWorker
	preds     []predMemo // by distinct-arch slot
	decisions [placement.Cold + 1]int
	xfer      int64 // modelled transfer nanoseconds charged by the batch
	// xferByNode is, while a data-aware batch prices a task, the task's
	// transfer time to each memory node; all zero otherwise.
	xferByNode [maxNodes]int64
	_          [cacheLine]byte
}

// predMemo is the model answer a batch last read for one arch slot.
type predMemo struct {
	pe   *predEntry
	snap *predSnap
}

// predict is pe's answer for flops on arch slot ai, read once a batch for
// each codelet, size and arch: a batch of like tasks (a panel's updates, a
// fork's leaves) prices against one lookup.
func (b *dmdaBatch) predict(pe *predEntry, ai int, flops float64) *predSnap {
	m := &b.preds[ai]
	if m.pe != pe || m.snap.flops != flops {
		m.pe, m.snap = pe, pe.estimate(ai, flops)
	}
	return m.snap
}

// batchWorker is one worker as a batch sees it.
type batchWorker struct {
	node     int                 // the worker's memory node (fixed)
	archIdx  int                 // the worker's distinct-arch slot (fixed)
	offline  bool                // at the snapshot
	own      placement.History   // at the snapshot
	observed placement.Candidate // the bid without a model answer, from own and the pool
	// backlog is the worker's outstanding at the snapshot plus the batch's
	// charges on it, which are backlog - published.
	backlog, published int64
	placed             []*Task // in placement order, at most dmdaShare
}

// snapshot reads, once for a batch of n tasks, everything its placements
// price against that other goroutines write: each worker's outstanding,
// offline flag and observed history, and the pool's history (the model
// answers are read at their first use, see predict). It returns the
// batch's first placement.Pick cursor; task i of the batch uses cursor + i.
func (d *dmdaDispatcher) snapshot(b *dmdaBatch, n int) uint64 {
	var pool placement.History
	for w := range b.workers {
		bw, wk := &b.workers[w], &d.workers[w]
		bw.offline = wk.offline.Load()
		bw.backlog = wk.outstanding.Load()
		bw.published = bw.backlog
		bw.own = d.history(w)
		pool.Nanos += bw.own.Nanos
		pool.Count += bw.own.Count
	}
	for w := range b.workers {
		b.workers[w].observed = observed(b.workers[w].own, pool)
	}
	clear(b.preds)
	b.decisions = [placement.Cold + 1]int{}
	b.xfer = 0
	return d.rr.Add(uint64(n)) - uint64(n)
}

// choose offers every worker online at the snapshot to a placement.Pick and
// returns the winner. It allocates nothing: the per-node transfer times live
// in the batch and the estimate cache replaces per-worker map-and-lock
// lookups.
func (d *dmdaDispatcher) choose(b *dmdaBatch, t *Task, cursor uint64) (int, placement.Candidate) {
	if d.dataAware {
		for n := range d.links {
			b.xferByNode[n] = d.transferToNode(t, n)
		}
	}
	pe := d.pred[t.id]
	bid := func(bw *batchWorker, xfer int64) placement.Candidate {
		var s *predSnap
		if pe != nil {
			s = b.predict(pe, bw.archIdx, t.Flops)
		}
		return candidate(s, xfer, bw.observed)
	}
	pick := placement.NewPick(len(b.workers), cursor, t.Priority > 0)
	for k := range b.workers {
		w := pick.At(k)
		if bw := &b.workers[w]; !bw.offline {
			pick.Offer(w, bw.backlog, bid(bw, b.xferByNode[bw.node]))
		}
	}
	w, c, ok := pick.Best()
	if !ok {
		// Every worker offline: place round-robin anyway — the queue stays
		// stealable, and the engine aborts if no worker can ever recover.
		w = pick.At(0)
		c = bid(&b.workers[w], 0)
	}
	return w, c
}

// residentMask returns the nodes holding handle h: its bitmask, or node 0
// while the mask is unset.
func (d *dmdaDispatcher) residentMask(h int) uint64 {
	return max(d.resident[h].Load(), 1)
}

// markResident sets node's residency bit for handle h, reporting whether it
// was newly set — i.e. whether this placement implies a transfer worth
// prefetching.
func (d *dmdaDispatcher) markResident(h, node int) bool {
	bit := uint64(1) << uint(node)
	r := &d.resident[h]
	for {
		old := r.Load()
		cur := max(old, 1)
		next := cur | bit
		if next == cur && old != 0 {
			return false
		}
		if r.CompareAndSwap(old, next) {
			return cur&bit == 0
		}
	}
}

// prefetch marks t's read operands resident on the node t is about to run
// on, ahead of the move: later siblings reading the same handle see the
// transfer already paid and co-locate.
func (d *dmdaDispatcher) prefetch(t *Task, node int) {
	if !d.dataAware {
		return
	}
	for _, a := range t.Accesses {
		if a.Mode.Reads() && d.markResident(a.Handle.id, node) {
			d.prefetches.Inc()
		}
	}
}

// place routes one task of a batch: score, charge, prefetch. The charge
// goes to the batch's backlog and the task to its worker's share, which
// publish makes visible. A full share is published at once, so idle
// workers start on it while the rest of the batch is priced.
func (d *dmdaDispatcher) place(b *dmdaBatch, t *Task, cursor uint64) {
	w, c := d.choose(b, t, cursor)
	bw := &b.workers[w]
	charge := c.Charge()
	d.est[t.id] = charge
	bw.backlog += charge
	b.decisions[c.Source]++
	b.xfer += c.Xfer
	d.prefetch(t, bw.node)
	if d.onPlace != nil {
		d.onPlace(w, t, c)
	}
	bw.placed = append(bw.placed, t)
	if len(bw.placed) == dmdaShare {
		d.publish(w, bw)
	}
}

// publish hands worker w the share of the batch it holds: one add to its
// outstanding and one pushAll under one pushMu hold. Then it wakes w if it
// sleeps, and other sleepers up to one a task.
func (d *dmdaDispatcher) publish(w int, bw *batchWorker) {
	wk := &d.workers[w]
	if charged := bw.backlog - bw.published; charged != 0 {
		wk.outstanding.Add(charged)
		bw.published = bw.backlog
	}
	wk.pushMu.Lock()
	wk.q.pushAll(bw.placed)
	wk.pushMu.Unlock()
	d.sleep.wake(w, len(bw.placed))
	bw.placed = bw.placed[:0]
}

// finish publishes every share the batch still holds, then adds its
// decision and transfer counts, once each.
func (d *dmdaDispatcher) finish(b *dmdaBatch) {
	for w := range b.workers {
		if bw := &b.workers[w]; len(bw.placed) > 0 {
			d.publish(w, bw)
		}
	}
	for src, n := range b.decisions {
		if n > 0 {
			d.decisions[src].Add(float64(n))
		}
	}
	if b.xfer > 0 {
		d.xferSeconds.Add(float64(b.xfer) / 1e9)
	}
}

// push is the batch of one.
func (d *dmdaDispatcher) push(from int, t *Task) {
	one := [1]*Task{t}
	d.pushBatch(from, one[:])
}

// pushBatch prices the whole batch against one snapshot of the pool, task
// by task in priority order as a sequence of single pushes from this
// goroutine would, and publishes each worker's share once (every dmdaShare
// tasks in a wider batch). Placing a batch is serial work on the completing
// worker, so a task costs the pricing alone: no shared cursor, outstanding,
// lock, queue index or metric is written per task.
func (d *dmdaDispatcher) pushBatch(from int, ts []*Task) {
	// Place higher-priority tasks first: a batch release happens whenever a
	// finishing task readies several dependents at once, and placement order
	// is consumption order on an uncontended worker (the deque serves
	// oldest-placed first). Submitters mark the critical chain with higher
	// priorities (e.g. POTRF over trailing GEMMs), so the chain task lands
	// ahead of the bulk updates instead of behind them. The batch is sorted
	// where it lies — the completing worker's own buffer — so ordering it
	// allocates nothing.
	for i := 1; i < len(ts); i++ {
		if ts[i].Priority != ts[0].Priority {
			slices.SortStableFunc(ts, func(a, b *Task) int { return cmp.Compare(b.Priority, a.Priority) })
			break
		}
	}
	b := &d.batches[len(d.batches)-1]
	if from >= 0 {
		b = &d.batches[from] // the calling worker's own: no lock
	} else {
		d.extMu.Lock()
		defer d.extMu.Unlock()
	}
	cursor := d.snapshot(b, len(ts))
	for i, t := range ts {
		d.place(b, t, cursor+uint64(i))
	}
	d.finish(b)
}

func (d *dmdaDispatcher) slot(w int) *parkSlot { return &d.sleep[w] }

// dmdaStealBackoff is how long a thief sleeps after a sweep in which every
// stealable task was declined as EFT-unfavorable before it sweeps again: the
// work is better left where the model placed it, and the sleep gives the
// rightful owner — woken first by the publish that placed the task there —
// the CPU to go collect it instead of racing the thief for it.
//
// How long the sleep lasts depends on the rest of the process. The Go
// runtime fires a timer at a scheduling point of a running goroutine, so
// beside a worker that parks, yields or blocks between tasks it wakes after
// ≈ 51 µs; when every other P is idle (or runs without a scheduling point)
// it waits in the netpoller, whose timeout has millisecond resolution, and
// wakes after ≈ 1.07 ms (2-vCPU Xeon, go1.24, EXPERIMENTS Ext-I
// 2026-10-18). Neither bound is the one to tune toward: a 1 ms constant cut
// chol-smp's dmda throughput by 21 % (4 of 4 pairs), and a true 50 µs nap
// even when idle (a yield loop) raised lu-skew's declined sweeps from 54–56
// to 606–618 a rep and its makespan by 22–35 % — the thief came back before
// the owner had run.
const dmdaStealBackoff = 50 * time.Microsecond

// dmdaStealForceAfter is the liveness valve of the EFT-aware steal
// throttle: when a worker's sweeps keep being declined while the whole pool
// completes nothing for this long, the placement model is presumed wrong
// (the victim is hung, offline, or far slower than predicted) and the next
// sweep steals unconditionally; taskrt_steal_forced_total counts those steals.
const dmdaStealForceAfter = 10 * time.Millisecond

// stealFrom takes the newest task from the victim's queue (the one that
// would have waited longest behind the victim's backlog), releases its charge
// from the victim and charges the thief its own candidate for the task:
// the thief's estimate plus moving the task's operands to the thief's node.
//
// The steal is EFT-aware unless forced: dmda's placement already routed the
// task to the best expected finish time, so a thief only improves matters
// when it would finish the task sooner than the victim clears its whole
// backlog. Otherwise — the classic failure being a slow architecture
// picking at a fast worker's queue and dragging a near-critical task onto a
// unit ten times worse at it — the task goes back, the victim is woken in
// case it parked while the task was out of its queue, and the thief reports
// a decline instead. A task placed with no charge (nothing was known when
// it was placed: a cold run's seeds) has no placement to defend and is never
// declined. The second result distinguishes "declined" (work exists but is
// better off where it is) from "queue empty".
func (d *dmdaDispatcher) stealFrom(thief, victim int, force bool) (*Task, bool) {
	vk := &d.workers[victim]
	tk := &d.workers[thief]
	vk.pushMu.Lock()
	t := vk.q.pop()
	if t == nil {
		vk.pushMu.Unlock()
		return nil, false
	}
	own := d.history(thief)
	var pool placement.History
	if own.Count == 0 {
		pool = d.pool() // the cold estimate
	}
	var s *predSnap
	if pe := d.pred[t.id]; pe != nil {
		s = pe.estimate(tk.archIdx, t.Flops)
	}
	c := candidate(s, d.transferToNode(t, tk.node), observed(own, pool))
	if !force && d.est[t.id] != 0 && !placement.StealPays(c, tk.outstanding.Load(), vk.outstanding.Load()) {
		// The victim finishes its backlog (which ends with t — pop takes
		// the newest placement) before the thief could finish t alone:
		// put it back where the model wanted it.
		vk.q.push(t)
		vk.pushMu.Unlock()
		d.sleep[victim].claim(nil, -1)
		return nil, true
	}
	vk.pushMu.Unlock()
	vk.outstanding.Add(-d.est[t.id])
	d.prefetch(t, tk.node)
	d.est[t.id] = c.Charge()
	tk.outstanding.Add(d.est[t.id])
	return t, false
}

// take serves worker w: own queue first (oldest placement first), then a
// steal sweep over the other workers. When every available task is declined
// as EFT-unfavorable the thief naps dmdaStealBackoff — the owner the
// placement chose was woken by its publish and runs first — and sweeps
// again, so take returns nil only once every queue is empty, or on abort.
func (d *dmdaDispatcher) take(w int, abort <-chan struct{}) (*Task, int) {
	for {
		t, victim, declined := d.sweep(w)
		if t != nil || !declined {
			return t, victim
		}
		select {
		case <-abort:
			return nil, -1
		default:
		}
		time.Sleep(dmdaStealBackoff)
	}
}

// sweep is one pass of take. Its third result reports a pass that found
// tasks and declined them all; such passes arm the stall valve, and once the
// pool has completed nothing for dmdaStealForceAfter the next pass steals
// unconditionally.
func (d *dmdaDispatcher) sweep(w int) (*Task, int, bool) {
	wk := &d.workers[w]
	// Own queue first, oldest placement first (lock-free top end).
	if t := wk.q.steal(); t != nil {
		wk.stallDone = -1
		return t, -1, false
	}
	force := wk.stallDone >= 0 && wk.stallDone == d.pool().Count &&
		time.Since(wk.stallSince) > dmdaStealForceAfter
	declined := false
	for i := 1; i < len(d.workers); i++ {
		victim := (w + i) % len(d.workers)
		t, unfav := d.stealFrom(w, victim, force)
		if t != nil {
			wk.steals.Add(1)
			if force {
				rtm.forcedSteals.Inc()
			}
			wk.stallDone = -1
			return t, victim, false
		}
		declined = declined || unfav
	}
	if !declined {
		wk.stallDone = -1
		return nil, -1, false
	}
	if done := d.pool().Count; done != wk.stallDone {
		wk.stallDone, wk.stallSince = done, time.Now()
	}
	return nil, -1, true
}

func (d *dmdaDispatcher) stolen(w int) int { return int(d.workers[w].steals.Load()) }

func (d *dmdaDispatcher) depth(w int) int {
	if w < 0 {
		return 0 // every push is routed; there is no shared queue
	}
	return d.workers[w].q.size()
}

func (d *dmdaDispatcher) finished(w int, t *Task, dur time.Duration, ran bool) {
	wk := &d.workers[w]
	wk.outstanding.Add(-d.est[t.id])
	if !ran {
		return
	}
	wk.busyNanos.Add(int64(dur))
	wk.completed.Add(1)
	if d.dataAware {
		// A write moves the handle: it is now resident only where it was
		// produced. (Skipped when the kernel never ran — data unchanged.)
		for _, a := range t.Accesses {
			if a.Mode.Writes() {
				d.resident[a.Handle.id].Store(1 << uint(wk.node))
			}
		}
	}
}

func (d *dmdaDispatcher) setOffline(w int, offline bool) {
	d.workers[w].offline.Store(offline)
}
