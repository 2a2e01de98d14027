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
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/trace"
)

// errInjected marks an injected fault in real mode. Injected failures fire
// at task launch, before the kernel touches data, so retries operate on
// unmodified payloads.
var errInjected = fmt.Errorf("taskrt: injected fault")

// runReal executes the task graph on goroutine workers. Only implementations
// with a non-nil Func whose architecture matches a worker's architecture are
// eligible — real GPUs are not available, which is exactly why Sim mode
// exists. Each worker inherits the architecture of the platform Master it
// expands from (masters in declaration order, one worker per effective unit;
// an explicit Config.Workers override truncates or pads with the first
// master's architecture), so heterogeneous platforms run fast and slow
// kernel variants side by side.
//
// Dispatch is work-stealing by default: each worker owns a Chase-Lev deque,
// completions push newly-ready dependents onto the completing worker's own
// deque (the locality hint — the dependent's inputs are still hot in that
// worker's cache), and idle workers steal FIFO from victims. That is "ws",
// the default. "dmda" routes each push to the worker with the earliest
// model-predicted finish time —
// perfmodel history per worker architecture plus interconnect-modelled
// transfer cost for operands not resident on the worker's memory node (one
// node per platform master, costs from the PDL's declared interconnects) —
// letting the steal path mop up mispredictions. The hot path is lock-free
// and batched: dependency counters and the pending count are atomics,
// dependents released by one completion enter the dispatcher through a
// single pushBatch (one semaphore round per batch), and per-worker
// statistics live in worker-owned state merged after shutdown — the
// engine's one mutex now guards only the failure slow path.
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
// — the original fail-fast contract.
func runReal(g *Graph, cfg Config) (*Report, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 0
		for _, m := range cfg.Platform.Masters {
			workers += m.EffectiveQuantity()
		}
	}
	if workers < 1 {
		workers = 1
	}
	archs, nodes, nodeIDs := workerLayout(cfg.Platform, workers)

	// Pre-validate: every task must have a runnable implementation for every
	// worker architecture — work-stealing dispatch routes blindly and dmda's
	// steal path ignores architecture, so any worker may end up with any task.
	var distinct []string
	for _, a := range archs {
		if !slices.Contains(distinct, a) {
			distinct = append(distinct, a)
		}
	}
	for _, t := range g.tasks {
		for _, a := range distinct {
			im := t.Codelet.ImplFor(a)
			if im == nil || im.Func == nil {
				return nil, fmt.Errorf("taskrt: codelet %q has no real implementation for worker arch %q", t.Codelet.Name, a)
			}
		}
	}

	ft := cfg.ftEnabled()
	policy := cfg.Retry.withDefaults()

	// Worker-owned hot state: no lock is ever taken to update it. The main
	// goroutine reads it only after wgWorkers.Wait().
	type workerState struct {
		arch      string
		busy      time.Duration
		count     int
		startedOn int // attempts started, drives AfterTasks fault triggers
		faults    *faultQueue
		// ready buffers the dependents one completion unblocks, so they reach
		// the dispatcher as a single batch. Worker-owned, reused across tasks.
		ready []*Task
	}
	ws := make([]workerState, workers)
	for w := 0; w < workers; w++ {
		ws[w].arch = archs[w]
		if evs := cfg.Faults.forUnit(workerUnitID(w)); len(evs) > 0 {
			ws[w].faults = &faultQueue{events: evs}
		}
	}

	var disp dispatcher
	if cfg.Scheduler == "dmda" { // validate admits only ws and dmda
		// dmda is model-driven: without a caller-provided store it still
		// self-calibrates within the run (the engine records every execution
		// into Models below), so give it a private one rather than running
		// the whole graph on the cold/fallback paths. cfg is this run's copy.
		if cfg.Models == nil {
			cfg.Models = perfmodel.NewStore()
		}
		disp = newDmdaDispatcher(archs, nodes, interconnectLinks(cfg.Platform, nodeIDs), g.tasks, g.handles, cfg.Models)
	} else {
		disp = newStealDispatcher(workers, len(g.tasks))
	}

	// Dependency counters and the unresolved-task count are atomics: the
	// completion hot path touches no lock. attempts counts each task's failed
	// attempts: the failure slow path adds, the next execution reads it into
	// its spans.
	remaining := make([]atomic.Int32, len(g.tasks))
	attempts := make([]atomic.Int32, len(g.tasks))
	for i := range remaining {
		remaining[i].Store(int32(g.depOff[i+1] - g.depOff[i]))
	}

	var (
		mu             sync.Mutex // guards the failure slow path below
		firstErr       error
		failedAttempts = 0
		retriedTasks   = 0
		watchdogTrips  = 0
		alive          = workers
		recovering     = 0
		blacklisted    = map[string]bool{}
		timers         = map[*time.Timer]struct{}{} // outstanding requeue timers

		failed  atomic.Bool
		pending atomic.Int64 // tasks not yet finally resolved
	)
	pending.Store(int64(len(g.tasks)))
	done := make(chan struct{})  // closed when every task is resolved
	abort := make(chan struct{}) // closed on the first fatal error
	if len(g.tasks) == 0 {
		close(done)
	}
	fail := func(err error) { // caller holds mu
		if firstErr == nil {
			firstErr = err
			failed.Store(true)
			close(abort)
			// Stop outstanding retry timers: nothing may fire into a dead run.
			for tm := range timers {
				tm.Stop()
			}
			clear(timers)
		}
	}
	resolve := func() { // one task reached a final state
		if pending.Add(-1) == 0 && !failed.Load() {
			close(done)
		}
	}
	release := func(worker int, t *Task) { // successful completion on worker
		buf := ws[worker].ready[:0]
		for _, dep := range g.succOf(t.id) {
			if remaining[dep].Add(-1) == 0 {
				buf = append(buf, g.tasks[dep])
			}
		}
		ws[worker].ready = buf
		if len(buf) > 0 {
			disp.pushBatch(worker, buf)
		}
	}
	requeue := func(t *Task, after time.Duration) { // caller holds mu
		if firstErr != nil {
			return // aborting: the retry would fire into a dead run
		}
		var tm *time.Timer
		tm = time.AfterFunc(after, func() {
			mu.Lock()
			delete(timers, tm)
			dead := firstErr != nil
			mu.Unlock()
			if !dead {
				disp.push(-1, t)
			}
		})
		timers[tm] = struct{}{}
	}

	tracing := cfg.Trace != nil
	shardCap := 0
	if tracing {
		// Bound each shard to the run's size (x2 for retry/steal/failure
		// events) rather than the 64k default, so a worker can never buffer
		// more than the run could have produced.
		shardCap = 2*len(g.tasks) + 64
		if shardCap > trace.DefaultShardCapacity {
			shardCap = trace.DefaultShardCapacity
		}
		cfg.Trace.SetMeta("workers", strconv.Itoa(workers))
		// One growth for the run: dmda's Place records and every worker's
		// Flush land in the same list.
		cfg.Trace.Reserve(shardCap)
	}

	start := time.Now()

	// dmda placement decisions are observable: the dispatcher records one
	// Place event per routed task directly into the trace (pushes happen on
	// whichever goroutine completed the parent, so no worker shard applies;
	// the push path already pays O(workers) scoring, one mutexed append is
	// in proportion).
	if dd, ok := disp.(*dmdaDispatcher); ok && tracing {
		tr := cfg.Trace
		dd.onPlace = func(w int, t *Task, c placement.Candidate) {
			now := time.Since(start).Seconds()
			tr.Record(trace.Event{
				Kind: trace.Place, Unit: workerUnitID(w), Worker: w,
				TaskID: t.id, Label: taskLabel(t),
				Start: now, End: now, From: c.Source.String(),
				Transfer: float64(c.Xfer) / 1e9,
				Attempt:  int(attempts[t.id].Load()),
			})
		}
	}

	// Seed the dispatcher with the dependency-free tasks, as one batch.
	seeds := make([]*Task, 0, len(g.tasks))
	for i, t := range g.tasks {
		if remaining[i].Load() == 0 {
			seeds = append(seeds, t)
		}
	}
	if len(seeds) > 0 {
		disp.pushBatch(-1, seeds)
	}

	// Queue-depth sampler: a low-rate observer feeding the taskrt_queue_depth
	// gauges while the run is live. Depth reads are racy snapshots (atomic
	// deque indices, channel length) and never touch the dispatch hot path.
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		gauges := make([]*metrics.Gauge, workers)
		for w := range gauges {
			gauges[w] = rtm.queueDepth.With(workerUnitID(w))
		}
		injector := rtm.queueDepth.With("injector")
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				for _, g := range gauges {
					g.Set(0)
				}
				injector.Set(0)
				return
			case <-tick.C:
				for w, g := range gauges {
					g.Set(float64(disp.depth(w)))
				}
				injector.Set(float64(disp.depth(-1)))
			}
		}
	}()

	var wgWorkers sync.WaitGroup
	wgWorkers.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wgWorkers.Done()
			st := &ws[worker]
			unitID := workerUnitID(worker)
			hist := rtm.taskSeconds.With(unitID)
			blGauge := rtm.blacklisted.With(unitID)
			blGauge.Set(0)
			// Spans buffer into a worker-owned shard (lock-free appends) and
			// merge into the Trace when the worker exits.
			var sh *trace.Shard
			if tracing {
				sh = cfg.Trace.NewShard(shardCap)
				defer sh.Flush()
			}
			// rec buffers one causal span. t is nil for unit-level events
			// (blacklist/recover), which carry no task identity.
			rec := func(kind trace.Kind, t *Task, attempt int, s, e time.Time, from string) {
				if sh == nil {
					return
				}
				ev := trace.Event{
					Kind: kind, Unit: unitID, Worker: worker, TaskID: trace.NoTask,
					Start: s.Sub(start).Seconds(), End: e.Sub(start).Seconds(),
					Attempt: attempt, From: from,
				}
				if t != nil {
					ev.Label = taskLabel(t)
					ev.TaskID = t.id
					ev.ParentIDs = g.depsOf(t.id)
				}
				sh.Record(ev)
			}
			// setOffline publishes this worker's blacklisting (or recovery):
			// gauge, dispatcher routing, trace instant, tracker. Called
			// without mu.
			setOffline := func(offline bool) {
				kind, gauge := trace.Recover, 0.0
				if offline {
					kind, gauge = trace.Blacklist, 1
				}
				blGauge.Set(gauge)
				disp.setOffline(worker, offline)
				now := time.Now()
				rec(kind, nil, 0, now, now, "")
				if cfg.Tracker != nil {
					// Best effort: the tracker may not know worker ids.
					if offline {
						_ = cfg.Tracker.SetOffline(unitID)
					} else {
						_ = cfg.Tracker.SetOnline(unitID)
					}
				}
			}
			// attemptFailed is the failure slow path for one attempt of t on
			// this worker, detected at the given instant: it books the
			// attempt and either schedules the retry or, at MaxAttempts,
			// fails the run. blacklist also takes this worker out of the pool
			// (its deque stays stealable); recovers says it will be back. A
			// false return means the run has failed and the worker must exit.
			attemptFailed := func(t *Task, cause error, detected time.Time, blacklist, recovers bool) bool {
				mu.Lock()
				failedAttempts++
				n := int(attempts[t.id].Add(1))
				if n == 1 {
					retriedTasks++
				}
				if n >= policy.MaxAttempts {
					fail(fmt.Errorf("taskrt: task %q (%s) failed %d attempts, last on %s: %w",
						t.Codelet.Name, t.Label, n, unitID, cause))
					mu.Unlock()
					resolve()
					return false
				}
				backoff := retryWait(n)
				requeue(t, backoff)
				if blacklist {
					blacklisted[unitID] = true
					alive--
					if recovers {
						recovering++
					}
					if alive == 0 && recovering == 0 && pending.Load() > 0 {
						fail(fmt.Errorf("taskrt: all %d workers blacklisted with %d task(s) pending", workers, pending.Load()))
					}
				}
				mu.Unlock()
				rec(trace.Retry, t, n, detected, detected.Add(backoff), "")
				if blacklist {
					setOffline(true)
				}
				return true
			}
			for {
				if !disp.acquire(done, abort) {
					return
				}
				t, victim := disp.take(worker, abort)
				if t == nil {
					if victim == takeRetry {
						continue // credit handed back; re-acquire
					}
					return // aborted mid-sweep
				}
				attempt := int(attempts[t.id].Load())
				if victim >= 0 {
					now := time.Now()
					rec(trace.Steal, t, attempt, now, now, workerUnitID(victim))
				}

				// Injected fault check: fires before the kernel runs, so
				// payloads stay untouched and the retry is safe. Worker-owned
				// state: no lock.
				st.startedOn++
				var inj *FaultEvent
				if ft && st.faults != nil {
					if f := st.faults.pending(); f != nil {
						if (f.AfterTasks > 0 && st.startedOn >= f.AfterTasks) ||
							(f.AtTime > 0 && time.Since(start).Seconds() >= f.AtTime) {
							st.faults.consume()
							inj = f
						}
					}
				}

				if inj != nil {
					t0 := time.Now()
					if inj.Hang {
						// A hung launch: the watchdog converts it into a
						// failure after the timeout.
						d := cfg.taskTimeout(t, st.arch, policy)
						if d <= 0 {
							d = retryWait(policy.MaxAttempts) // bounded stand-in
						}
						select {
						case <-time.After(d):
						case <-abort:
							return
						}
						mu.Lock()
						watchdogTrips++
						mu.Unlock()
					}
					detected := time.Now()
					rec(trace.Failure, t, attempt, t0, detected, "")
					// The kernel never ran: release the dispatcher's
					// outstanding-work charge without skewing observed means.
					disp.finished(worker, t, 0, false)
					recovers := inj.RecoverAfter > 0
					if !attemptFailed(t, errInjected, detected, true, recovers) || !recovers {
						return // run failed, or this worker is permanently dead
					}
					select {
					case <-time.After(time.Duration(inj.RecoverAfter * float64(time.Second))):
					case <-abort:
						return
					}
					mu.Lock()
					delete(blacklisted, unitID)
					alive++
					recovering--
					mu.Unlock()
					setOffline(false)
					continue
				}

				im := t.Codelet.ImplFor(st.arch)
				tc := &TaskContext{WorkerID: worker, Arch: st.arch, Task: t}
				for _, a := range t.Accesses {
					tc.Data = append(tc.Data, a.Handle.Payload)
				}
				t0 := time.Now()
				var err error
				wdog := false
				var timeout time.Duration // no watchdog without fault tolerance
				if ft {
					timeout = cfg.taskTimeout(t, st.arch, policy)
				}
				if timeout > 0 {
					// Watchdog: run the kernel aside and abandon it past the
					// timeout (goroutines cannot be killed; the stuck kernel
					// is orphaned and its worker blacklisted).
					res := make(chan error, 1)
					go func() { res <- im.Func(tc) }()
					select {
					case err = <-res:
					case <-time.After(timeout):
						err = fmt.Errorf("taskrt: watchdog: task %q (%s) exceeded %v on %s",
							t.Codelet.Name, t.Label, timeout, unitID)
						wdog = true
					}
				} else {
					err = im.Func(tc)
				}
				d := time.Since(t0)
				disp.finished(worker, t, d, true)
				if err == nil {
					rec(trace.Task, t, attempt, t0, t0.Add(d), "")
					hist.Observe(d.Seconds())
					if cfg.Models != nil && t.Flops > 0 && d > 0 {
						_ = cfg.Models.Model(t.Codelet.Name, st.arch).Record(t.Flops, d.Seconds())
					}
					st.busy += d
					st.count++
					release(worker, t)
					resolve()
					continue
				}
				// Failure path.
				detected := t0.Add(d)
				rec(trace.Failure, t, attempt, t0, detected, "")
				st.busy += d
				if !ft {
					// Fail fast: the original no-recovery contract.
					mu.Lock()
					fail(fmt.Errorf("taskrt: task %q (%s): %w", t.Codelet.Name, t.Label, err))
					mu.Unlock()
					resolve()
					return
				}
				if wdog {
					mu.Lock()
					watchdogTrips++
					mu.Unlock()
				}
				// A hung kernel condemns its worker: the unit cannot be trusted
				// (the orphaned goroutine may still hold it).
				if !attemptFailed(t, err, detected, wdog, false) || wdog {
					return
				}
			}
		}(w)
	}

	select {
	case <-done:
	case <-abort:
	}
	elapsed := time.Since(start)
	wgWorkers.Wait() // let in-flight attempts finish before reading stats
	close(samplerStop)
	samplerWG.Wait()

	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	rep := &Report{
		Mode:            Real,
		Scheduler:       cfg.Scheduler,
		Tasks:           len(g.tasks),
		MakespanSeconds: elapsed.Seconds(),
		FailedAttempts:  failedAttempts,
		RetriedTasks:    retriedTasks,
		WatchdogTrips:   watchdogTrips,
	}
	for id := range blacklisted {
		rep.Blacklisted = append(rep.Blacklisted, id)
	}
	sort.Strings(rep.Blacklisted)
	for w := 0; w < workers; w++ {
		steals := disp.stolen(w)
		rep.Steals += steals
		rep.PerUnit = append(rep.PerUnit, UnitStats{
			ID:          workerUnitID(w),
			Arch:        ws[w].arch,
			Tasks:       ws[w].count,
			BusySeconds: ws[w].busy.Seconds(),
			Steals:      steals,
		})
	}
	return rep, nil
}

// workerLayout expands the platform's Masters into real-mode workers: in
// declaration order, each contributes EffectiveQuantity workers of its
// architecture on its own memory node (node i is master i; ids[i] is its PU
// id, for route lookups against the PDL). An explicit Config.Workers override
// truncates the expansion or pads it with the first master's architecture on
// node 0, preserving the historical homogeneous behaviour on single-arch
// platforms.
func workerLayout(pl *core.Platform, workers int) (archs []string, nodes []int, ids []string) {
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

// taskTimeout derives the real-mode watchdog timeout for a task: perfmodel
// estimate × watchdogFactor when history exists, else the absolute
// RetryPolicy.TaskTimeout (0 = no watchdog).
func (cfg *Config) taskTimeout(t *Task, arch string, policy RetryPolicy) time.Duration {
	if cfg.Models != nil && t.Flops > 0 {
		if est, ok := cfg.Models.Model(t.Codelet.Name, arch).Estimate(t.Flops); ok {
			return time.Duration(est * watchdogFactor * float64(time.Second))
		}
	}
	if policy.TaskTimeout > 0 {
		return time.Duration(policy.TaskTimeout * float64(time.Second))
	}
	return 0
}
