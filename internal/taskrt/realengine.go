package taskrt

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/trace"
)

// errInjected marks an injected fault in real mode. Injected failures fire
// at task launch, before the kernel touches data, so retries operate on
// unmodified payloads.
var errInjected = fmt.Errorf("taskrt: injected fault")

// realRun is one execution of a task graph on goroutine workers. Only
// implementations with a non-nil Func whose architecture matches a worker's
// architecture are eligible — real GPUs are not available, which is exactly
// why Sim mode exists. Each worker inherits the architecture of the platform
// Master it expands from (masters in declaration order, one worker per
// effective unit; an explicit Config.Workers override truncates or pads with
// the first master's architecture), so heterogeneous platforms run fast and
// slow kernel variants side by side.
//
// Dispatch is work-stealing by default: each worker owns a Chase-Lev deque,
// completions push newly-ready dependents onto the completing worker's own
// deque (the locality hint — the dependent's inputs are still hot in that
// worker's cache), and idle workers steal FIFO from victims. That is "ws",
// the default. "dmda" routes each push to the worker with the earliest
// model-predicted finish time — perfmodel history per worker architecture
// plus interconnect-modelled transfer cost for operands not resident on the
// worker's memory node (one node per platform master, costs from the PDL's
// declared interconnects) — letting the steal path mop up mispredictions.
//
// With fault tolerance active (Config.Faults/Retry/Tracker) the engine
// additionally: honours injected worker faults from the FaultPlan (unit ids
// "worker0", "worker1", ...), retries failed tasks on other workers with
// capped exponential backoff, blacklists failed workers (re-admitting them
// after FaultEvent.RecoverAfter), and bounds every execution with a watchdog
// timeout derived from the perfmodel estimate so a hung kernel cannot
// deadlock Run. A blacklisted worker's deque stays stealable, so its queued
// tasks migrate to surviving workers. Retry backoff timers are registered
// and stopped on abort, so a failed run never leaves timers firing into a
// dead run. Without fault tolerance, the first codelet error aborts the run
// — the original fail-fast contract. Every failed attempt, whatever failed,
// is booked by one method, realWorker.fail.
type realRun struct {
	g        *Graph
	cfg      Config
	policy   RetryPolicy
	ft       bool // fault tolerance is active
	disp     dispatcher
	workers  []realWorker
	shardCap int       // a worker's trace shard capacity; 0 untraced
	start    time.Time // the run's time base, read through now

	// Dependency counters and the unresolved-task count are atomics: the
	// completion hot path touches no lock. attempts counts each task's failed
	// attempts: fail adds, the next execution reads it into its spans.
	remaining, attempts []atomic.Int32
	pending             atomic.Int64  // tasks no worker has flushed as resolved
	done                chan struct{} // closed when every task is resolved
	aborted             chan struct{} // closed on the first fatal error

	mu          sync.Mutex // guards the failure books below
	err         error
	blacklisted map[string]bool          // by unit id, while out of the pool
	recovering  int                      // blacklisted workers that will be back
	timers      map[*time.Timer]struct{} // outstanding requeue timers
	// The Report's failure counts.
	failedAttempts, retriedTasks, watchdogTrips int
}

// realWorker is one worker goroutine and what a dispatched task writes of its
// own — the reused TaskContext, the statistics, the resolved count, the ready
// buffer, the trace shard — padded off the other workers' cache lines; the run
// reads the statistics only after every worker has exited. Shared with the
// pool a task writes only the credit semaphore (one add per take, one per
// released batch), one dependency counter per dependent, and the indices of
// the deque it came from. Under dmda, placing a released dependent also
// writes the target worker's outstanding charge and the decision counter and
// takes the target's pushMu to enqueue; finishing writes the worker's own
// observed totals, whose pool-wide sum only a cold estimate and the stall
// valve read.
type realWorker struct {
	r       *realRun
	id      int
	unitID  string
	arch    string
	hist    *metrics.Histogram // taskrt_task_seconds{unit}
	blGauge *metrics.Gauge     // taskrt_unit_blacklisted{unit}
	depth   *metrics.Gauge     // taskrt_queue_depth{unit}, set by the run's sampler
	sh      *trace.Shard       // nil untraced
	faults  faultQueue         // this worker's injected faults; none without a plan

	busy      time.Duration
	count     int
	startedOn int   // attempts started, drives AfterTasks fault triggers
	resolved  int64 // tasks resolved since this worker's last flush
	// ready buffers the dependents one completion unblocks, so they reach
	// the dispatcher as a single batch. Reused across tasks.
	ready []*Task
	// tc is the context every call without fault tolerance reuses.
	tc TaskContext
	// A full line after the fields keeps the next worker's off them.
	_ [cacheLine]byte
}

// runReal executes the task graph on goroutine workers; realRun says how.
func runReal(g *Graph, cfg Config) (*Report, error) {
	archs, nodes, nodeIDs := workerLayout(cfg.Platform, cfg.Workers)
	if err := checkRealImpls(g, archs); err != nil {
		return nil, err
	}
	r := &realRun{
		g: g, cfg: cfg, policy: cfg.Retry.withDefaults(), ft: cfg.ftEnabled(),
		workers:   make([]realWorker, len(archs)),
		remaining: make([]atomic.Int32, len(g.tasks)),
		attempts:  make([]atomic.Int32, len(g.tasks)),
		done:      make(chan struct{}), aborted: make(chan struct{}),
		blacklisted: map[string]bool{}, timers: map[*time.Timer]struct{}{},
	}
	if cfg.Scheduler == "dmda" { // validate admits only ws and dmda
		// dmda is model-driven: a private store lets it self-calibrate within
		// the run (every execution is recorded into Models) rather than run
		// the whole graph on the cold/fallback paths.
		if r.cfg.Models == nil {
			r.cfg.Models = perfmodel.NewStore()
		}
		r.disp = newDmdaDispatcher(archs, nodes, interconnectLinks(cfg.Platform, nodeIDs), g.tasks, g.handles, r.cfg.Models)
	} else {
		r.disp = newStealDispatcher(len(archs), len(g.tasks))
	}
	for i := range r.workers {
		id := workerUnitID(i)
		r.workers[i] = realWorker{r: r, id: i, unitID: id, arch: archs[i],
			hist: rtm.taskSeconds.With(id), blGauge: rtm.blacklisted.With(id),
			depth: rtm.queueDepth.With(id), faults: faultQueue{events: cfg.Faults.forUnit(id)}}
	}
	if cfg.Trace != nil {
		// Bound each shard to the run's size (x2 for retry/steal/failure
		// events) rather than the 64k default, so a worker can never buffer
		// more than the run could have produced. One growth for the run:
		// dmda's Place records and every worker's Flush land in one list.
		r.shardCap = min(2*len(g.tasks)+64, trace.DefaultShardCapacity)
		cfg.Trace.SetMeta("workers", strconv.Itoa(len(archs)))
		cfg.Trace.Reserve(r.shardCap)
	}
	r.pending.Store(int64(len(g.tasks)))
	if len(g.tasks) == 0 {
		close(r.done)
	}
	r.start = time.Now()
	if dd, ok := r.disp.(*dmdaDispatcher); ok && cfg.Trace != nil {
		dd.onPlace = r.place
	}
	// Seed the dispatcher with the dependency-free tasks, as one batch.
	seeds := make([]*Task, 0, len(g.tasks))
	for i, t := range g.tasks {
		n := int32(g.depOff[i+1] - g.depOff[i])
		r.remaining[i].Store(n)
		if n == 0 {
			seeds = append(seeds, t)
		}
	}
	if len(seeds) > 0 {
		r.disp.pushBatch(-1, seeds)
	}

	var wg sync.WaitGroup
	wg.Add(len(r.workers) + 1)
	go func() { defer wg.Done(); r.sample() }()
	for i := range r.workers {
		go func() { defer wg.Done(); r.workers[i].loop() }()
	}
	select {
	case <-r.done:
	case <-r.aborted:
	}
	elapsed := r.now()
	wg.Wait() // let in-flight attempts finish before reading stats
	return r.report(elapsed)
}

// now is the run's one time base: the monotonic time since the run started,
// one clock read. Trace events store it, in seconds.
func (r *realRun) now() time.Duration { return time.Since(r.start) }

// sleep waits d, or until the run is done or aborts; it reports false only
// for an abort. A run that is done waits for no worker to recover.
func (r *realRun) sleep(d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-r.done:
		return true
	case <-r.aborted:
		return false
	}
}

// abort fails the run with err unless it failed already; the caller holds mu.
func (r *realRun) abort(err error) {
	if r.err != nil {
		return
	}
	r.err = err
	close(r.aborted)
	// Stop outstanding retry timers: nothing may fire into a dead run.
	for tm := range r.timers {
		tm.Stop()
	}
	clear(r.timers)
}

// release hands the dependents that t's successful completion on w makes
// ready to the dispatcher, as one batch. The buffer grows once, to every
// dependent t has, rather than doubling while the others wait for the batch.
func (r *realRun) release(w *realWorker, t *Task) {
	succ := r.g.succOf(t.id)
	buf := slices.Grow(w.ready[:0], len(succ))
	for _, dep := range succ {
		if r.remaining[dep].Add(-1) == 0 {
			buf = append(buf, r.g.tasks[dep])
		}
	}
	w.ready = buf
	if len(buf) > 0 {
		r.disp.pushBatch(w.id, buf)
	}
}

// requeue pushes t again once after has passed. The caller holds mu. An
// aborting run requeues nothing: the retry would fire into a dead run.
func (r *realRun) requeue(t *Task, after time.Duration) {
	if r.err != nil {
		return
	}
	rtm.retries.Inc()
	var tm *time.Timer
	tm = time.AfterFunc(after, func() {
		r.mu.Lock()
		delete(r.timers, tm)
		dead := r.err != nil
		r.mu.Unlock()
		if !dead {
			r.disp.push(-1, t)
		}
	})
	r.timers[tm] = struct{}{}
}

// place records a dmda placement as a Place event, on whichever goroutine
// completed the parent: no worker shard applies, and next to the push's
// O(workers) scoring one mutexed append is in proportion.
func (r *realRun) place(w int, t *Task, c placement.Candidate) {
	now := r.now().Seconds()
	r.cfg.Trace.Record(trace.Event{
		Kind: trace.Place, Unit: workerUnitID(w), Worker: w,
		TaskID: t.id, Label: taskLabel(t),
		Start: now, End: now, From: c.Source.String(),
		Transfer: float64(c.Xfer) / 1e9,
		Attempt:  int(r.attempts[t.id].Load()),
	})
}

// sample feeds the taskrt_queue_depth gauges while the run is live and zeroes
// them when it ends. Depth reads are racy snapshots (atomic deque indices)
// and never touch the dispatch hot path.
func (r *realRun) sample() {
	injector := rtm.queueDepth.With("injector")
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			for i := range r.workers {
				r.workers[i].depth.Set(float64(r.disp.depth(i)))
			}
			injector.Set(float64(r.disp.depth(-1)))
			continue
		case <-r.done:
		case <-r.aborted:
		}
		for i := range r.workers {
			r.workers[i].depth.Set(0)
		}
		injector.Set(0)
		return
	}
}

// report sums the finished run up, or returns the error that aborted it.
func (r *realRun) report(elapsed time.Duration) (*Report, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return nil, r.err
	}
	rep := &Report{
		Mode:            Real,
		Scheduler:       r.cfg.Scheduler,
		Tasks:           len(r.g.tasks),
		MakespanSeconds: elapsed.Seconds(),
		FailedAttempts:  r.failedAttempts,
		RetriedTasks:    r.retriedTasks,
		WatchdogTrips:   r.watchdogTrips,
	}
	for id := range r.blacklisted {
		rep.Blacklisted = append(rep.Blacklisted, id)
	}
	sort.Strings(rep.Blacklisted)
	for i := range r.workers {
		w := &r.workers[i]
		steals := r.disp.stolen(i)
		rep.Steals += steals
		rep.PerUnit = append(rep.PerUnit, UnitStats{
			ID:          w.unitID,
			Arch:        w.arch,
			Tasks:       w.count,
			BusySeconds: w.busy.Seconds(),
			Steals:      steals,
		})
	}
	return rep, nil
}

// loop takes and runs tasks until the run ends or aborts, or until this
// worker leaves the pool for good.
func (w *realWorker) loop() {
	r := w.r
	w.blGauge.Set(0)
	// Spans buffer into the worker's own shard (lock-free appends) and merge
	// into the Trace when the worker exits.
	if r.shardCap > 0 {
		w.sh = r.cfg.Trace.NewShard(r.shardCap)
		defer w.sh.Flush()
	}
	defer w.flush()
	sem := r.disp.credits()
	for {
		// Once no task is left every live worker parks, flushing first, so
		// the last flush ends the run right after the last task resolved.
		if !sem.take() {
			w.flush()
			if !sem.wait(r.done, r.aborted) {
				return
			}
		}
		t, victim := r.disp.take(w.id, r.aborted)
		if t == nil {
			if victim == takeRetry {
				continue // credit handed back; re-acquire
			}
			return // aborted mid-sweep
		}
		attempt := int(r.attempts[t.id].Load())
		if victim >= 0 && w.sh != nil {
			now := r.now()
			w.rec(trace.Steal, t, attempt, now, now, workerUnitID(victim))
		}

		// Injected fault check (a fault plan implies fault tolerance): fires
		// before the kernel runs, so payloads stay untouched and the retry
		// is safe.
		w.startedOn++
		f := w.faults.pending()
		if f == nil || !(f.AfterTasks > 0 && w.startedOn >= f.AfterTasks ||
			f.AtTime > 0 && r.now().Seconds() >= f.AtTime) {
			if !w.run(t, attempt) {
				return
			}
			continue
		}
		w.faults.consume()
		t0 := r.now()
		if f.Hang {
			// A hung launch: the watchdog converts it into a failure after
			// the timeout.
			d := w.timeout(t)
			if d <= 0 {
				d = retryWait(r.policy.MaxAttempts) // bounded stand-in
			}
			if !r.sleep(d) {
				return
			}
		}
		// The kernel never ran: release the dispatcher's outstanding-work
		// charge without skewing observed means.
		r.disp.finished(w.id, t, 0, false)
		recoverAfter := time.Duration(f.RecoverAfter * float64(time.Second))
		if !w.fail(t, attempt, errInjected, t0, r.now(), true, recoverAfter, f.Hang) {
			return
		}
	}
}

// run executes one attempt of t's kernel on this worker and completes it:
// the fast path. It reports whether the worker stays in the pool.
func (w *realWorker) run(t *Task, attempt int) bool {
	r := w.r
	im := t.Codelet.ImplFor(w.arch)
	// A kernel under fault tolerance may outlive the call (the watchdog
	// orphans it), so its attempt gets a context of its own.
	tc := &w.tc
	var timeout time.Duration // no watchdog without fault tolerance
	if r.ft {
		tc = &TaskContext{}
		timeout = w.timeout(t)
	}
	*tc = TaskContext{WorkerID: w.id, Arch: w.arch, Task: t, Data: tc.Data[:0]}
	for _, a := range t.Accesses {
		tc.Data = append(tc.Data, a.Handle.Payload)
	}
	t0 := r.now()
	var err error
	wdog := false
	if timeout > 0 {
		// Watchdog: run the kernel aside and abandon it past the timeout
		// (goroutines cannot be killed; the stuck kernel is orphaned and its
		// worker blacklisted).
		res := make(chan error, 1)
		go func() { res <- im.Func(tc) }()
		select {
		case err = <-res:
		case <-time.After(timeout):
			err = fmt.Errorf("taskrt: watchdog: task %q (%s) exceeded %v on %s",
				t.Codelet.Name, t.Label, timeout, w.unitID)
			wdog = true
		}
	} else {
		err = im.Func(tc)
	}
	d := r.now() - t0
	r.disp.finished(w.id, t, d, true)
	w.busy += d
	if err != nil {
		// A hung kernel condemns its worker: the unit cannot be trusted (the
		// orphaned goroutine may still hold it).
		return w.fail(t, attempt, err, t0, t0+d, wdog, 0, wdog)
	}
	w.rec(trace.Task, t, attempt, t0, t0+d, "")
	w.hist.Observe(d.Seconds())
	if r.cfg.Models != nil && t.Flops > 0 && d > 0 {
		_ = r.cfg.Models.Model(t.Codelet.Name, w.arch).Record(t.Flops, d.Seconds())
	}
	w.count++
	r.release(w, t)
	w.resolved++
	return true
}

// flush adds the tasks this worker resolved since its last flush to the
// run's pending count; the flush that reaches zero ends the run.
func (w *realWorker) flush() {
	if w.resolved == 0 {
		return
	}
	if w.r.pending.Add(-w.resolved) == 0 {
		close(w.r.done)
	}
	w.resolved = 0
}

// fail books one failed attempt of t on this worker, run from t0 and detected
// at detected: an injected crash or hang, a codelet error, a watchdog trip
// (watchdog), or — without fault tolerance — any error, which aborts the run.
// It schedules the retry or, at MaxAttempts, aborts the run. blacklist also
// takes the worker out of the pool (its deque stays stealable): for good when
// recoverAfter is 0, else fail waits recoverAfter out and re-admits it. It
// reports whether the worker stays in the pool.
func (w *realWorker) fail(t *Task, attempt int, cause error, t0, detected time.Duration, blacklist bool, recoverAfter time.Duration, watchdog bool) bool {
	r := w.r
	// Flushed here, pending is exact when every worker is blacklisted: each
	// flushed on its way in and has resolved nothing since.
	w.flush()
	w.rec(trace.Failure, t, attempt, t0, detected, "")
	rtm.failures.Inc()
	if watchdog {
		rtm.watchdog.Inc()
	}
	r.mu.Lock()
	r.failedAttempts++
	if watchdog {
		r.watchdogTrips++
	}
	n := int(r.attempts[t.id].Add(1))
	if n == 1 {
		r.retriedTasks++
	}
	if !r.ft || n >= r.policy.MaxAttempts {
		if r.ft {
			cause = fmt.Errorf("taskrt: task %q (%s) failed %d attempts, last on %s: %w",
				t.Codelet.Name, t.Label, n, w.unitID, cause)
		} else { // fail fast: the original no-recovery contract
			cause = fmt.Errorf("taskrt: task %q (%s): %w", t.Codelet.Name, t.Label, cause)
		}
		r.abort(cause)
		r.mu.Unlock()
		w.resolved++ // flushed as the worker exits
		return false
	}
	backoff := retryWait(n)
	r.requeue(t, backoff)
	if blacklist {
		r.blacklisted[w.unitID] = true
		if recoverAfter > 0 {
			r.recovering++
		}
		if len(r.blacklisted) == len(r.workers) && r.recovering == 0 && r.pending.Load() > 0 {
			r.abort(fmt.Errorf("taskrt: all %d workers blacklisted with %d task(s) pending", len(r.workers), r.pending.Load()))
		}
	}
	r.mu.Unlock()
	w.rec(trace.Retry, t, n, detected, detected+backoff, "")
	if !blacklist {
		return true
	}
	w.setOffline(true)
	if recoverAfter <= 0 || !r.sleep(recoverAfter) {
		return false // gone for good, or the run aborted
	}
	r.mu.Lock()
	delete(r.blacklisted, w.unitID)
	r.recovering--
	r.mu.Unlock()
	w.setOffline(false)
	return true
}

// setOffline publishes this worker's blacklisting (or recovery): gauge,
// dispatcher routing, trace instant, tracker. Called without mu.
func (w *realWorker) setOffline(offline bool) {
	kind, gauge, mark := trace.Recover, 0.0, (*dynamic.Tracker).SetOnline
	if offline {
		kind, gauge, mark = trace.Blacklist, 1, (*dynamic.Tracker).SetOffline
	}
	w.blGauge.Set(gauge)
	w.r.disp.setOffline(w.id, offline)
	now := w.r.now()
	w.rec(kind, nil, 0, now, now, "")
	if tk := w.r.cfg.Tracker; tk != nil {
		_ = mark(tk, w.unitID) // best effort: the tracker may not know worker ids
	}
}

// rec buffers one causal span between two instants of the run's time base.
// t is nil for unit-level events (blacklist/recover), which carry no task
// identity.
func (w *realWorker) rec(kind trace.Kind, t *Task, attempt int, s, e time.Duration, from string) {
	if w.sh == nil {
		return
	}
	ev := trace.Event{
		Kind: kind, Unit: w.unitID, Worker: w.id, TaskID: trace.NoTask,
		Start: s.Seconds(), End: e.Seconds(), Attempt: attempt, From: from,
	}
	if t != nil {
		ev.Label = taskLabel(t)
		ev.TaskID = t.id
		ev.ParentIDs = w.r.g.depsOf(t.id)
	}
	w.sh.Record(ev)
}

// checkRealImpls checks that every task has a runnable implementation for
// every worker architecture: work-stealing dispatch routes blindly and dmda's
// steal path ignores architecture, so any worker may end up with any task.
func checkRealImpls(g *Graph, archs []string) error {
	// A master's workers are adjacent, so this leaves each arch once unless
	// masters of one arch are apart, which only repeats a check.
	distinct := slices.Compact(slices.Clone(archs))
	for _, t := range g.tasks {
		for _, a := range distinct {
			im := t.Codelet.ImplFor(a)
			if im == nil || im.Func == nil {
				return fmt.Errorf("taskrt: codelet %q has no real implementation for worker arch %q", t.Codelet.Name, a)
			}
		}
	}
	return nil
}

// workerLayout expands the platform's Masters into real-mode workers: in
// declaration order, each contributes EffectiveQuantity workers of its
// architecture on its own memory node (node i is master i; ids[i] is its PU
// id, for route lookups against the PDL). workers ≤ 0 takes every master's
// units, and at least one worker; an explicit Config.Workers override
// truncates the expansion or pads it with the first master's architecture on
// node 0, preserving the historical homogeneous behaviour on single-arch
// platforms.
func workerLayout(pl *core.Platform, workers int) (archs []string, nodes []int, ids []string) {
	if workers <= 0 {
		workers = 0
		for _, m := range pl.Masters {
			workers += m.EffectiveQuantity()
		}
	}
	workers = max(workers, 1)
	archs = make([]string, 0, workers)
	nodes = make([]int, 0, workers)
	ids = make([]string, len(pl.Masters))
	for mi, m := range pl.Masters {
		ids[mi] = m.ID
		for i := 0; i < m.EffectiveQuantity() && len(archs) < workers; i++ {
			archs = append(archs, m.Architecture())
			nodes = append(nodes, mi)
		}
	}
	for len(archs) < workers {
		archs = append(archs, pl.Masters[0].Architecture())
		nodes = append(nodes, 0)
	}
	return archs, nodes, ids
}

// interconnectLinks prices a transfer between every pair of master memory
// nodes over the PDL's declared route, with the bus-class default for hops
// that omit BANDWIDTH or LATENCY. Node pairs with no declared route cost zero
// — platforms that declare no interconnects get transfer-blind dmda.
func interconnectLinks(pl *core.Platform, ids []string) [][]placement.Link {
	links := make([][]placement.Link, len(ids))
	for i := range links {
		links[i] = make([]placement.Link, len(ids))
		for j := range links[i] {
			links[i][j], _ = placement.RouteLink(pl, ids[i], ids[j], placement.Bus())
		}
	}
	return links
}

// timeout is the watchdog's limit for one attempt of t on this worker: the
// perfmodel estimate × watchdogFactor when history exists, else the absolute
// RetryPolicy.TaskTimeout (0 = no watchdog).
func (w *realWorker) timeout(t *Task) time.Duration {
	if m := w.r.cfg.Models; m != nil && t.Flops > 0 {
		if est, ok := m.Model(t.Codelet.Name, w.arch).Estimate(t.Flops); ok {
			return time.Duration(est * watchdogFactor * float64(time.Second))
		}
	}
	return time.Duration(w.r.policy.TaskTimeout * float64(time.Second))
}
