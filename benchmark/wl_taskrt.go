package main

import (
	"fmt"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/discover"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

// The three workloads that run a task graph on the real engine, under both
// of its schedulers.
var schedulers = []string{"ws", "dmda"}

var cholSMP = workload{
	name: "chol-smp",
	why: "tiled Cholesky n=1024 on a homogeneous pool: blas tile kernels do almost all the work and placement " +
		"cannot matter, so a kernel gain shows here and a scheduler change should not",
	tailP: 0.75, nominalN: 60,
	setup: func(w workload, p params) (runner, error) { return setupFactor(w, p, "cholesky") },
}

var luSkew = workload{
	name: "lu-skew",
	why: "tiled LU n=1024 on 1 fast + 3 slow (sleeping) workers with warm models: makespan is set by taskrt EFT " +
		"placement, steal-decline and park/wake on a deep critical path, not by kernel speed",
	tailP: 0.50, nominalN: 20,
	setup: func(w workload, p params) (runner, error) { return setupFactor(w, p, "lu") },
}

var dispatchFork = workload{
	name: "dispatch-fork",
	why: "1 no-op root + 19999 no-op dependents: taskrt submit/push/wake/steal overhead is all of the work and " +
		"blas none, the same dispatcher as lu-skew used wide instead of deep",
	// p75 although the count allows p95: beside a neighbour that was busy 30 %
	// of the time p95 rose 21 %, p90 12 %, p75 6 % and the median 3 %.
	tailP: 0.75, nominalN: 300,
	setup: setupDispatchFork,
}

// jobTimes is one rep of a task-graph job.
type jobTimes struct {
	submit, run float64 // seconds in graph submission and in Runtime.Run
	latency     float64 // what the workload's latency metrics report
	rep         *taskrt.Report
}

// taskrtRunner drives one of the three workloads.
type taskrtRunner struct {
	w       workload
	workers int
	tasks   int
	primary string // the scheduler whose reps feed latency_p50_ms / latency_tail_ms
	// perRound is how many primary reps follow each rep of the other
	// scheduler: 1, or more where the other scheduler's reps are much longer
	// and would leave the primary one too few samples.
	perRound int
	warmup   int // leading rounds that are run and discarded
	// unscaled names a scheduler whose reps are reported as timed, not scaled
	// to the reference host speed, because they wait for something other
	// than the CPU.
	unscaled string
	// longReps: a rep takes a quarter second or more, so the host reference is
	// sampled inside reps as well as between them.
	longReps bool
	// job runs and verifies one rep under sched; tr, when non-nil, is set as
	// Config.Trace, and spans go to sp under op.
	job    func(sched string, tr *trace.Trace, sp *spanRecorder, op int) (jobTimes, error)
	probes func(d time.Duration, res *result)
}

func (r *taskrtRunner) close() {}

// measure alternates the two schedulers: one rep of the other scheduler,
// then perRound reps of the primary one, so that host drift hits both alike.
// Latency is the primary scheduler's; throughput is the other scheduler's
// tasks per second, so each is held by a metric of its own on every workload.
func (r *taskrtRunner) measure(d time.Duration, res *result) {
	deadline := time.Now().Add(d)
	other := schedulers[0]
	if other == r.primary {
		other = schedulers[1]
	}
	lat := map[string][]float64{}
	if r.longReps {
		defer res.ref.during()()
	}
	ref := res.ref.bracket()
	for i := 0; i < r.warmup+1 || time.Now().Before(deadline); i++ {
		round := []string{other}
		for k := 0; k < r.perRound; k++ {
			round = append(round, r.primary)
		}
		for _, s := range round {
			jt, err := r.job(s, nil, nil, i)
			k := ref.scale()
			if i < r.warmup {
				continue
			}
			res.op(err)
			if err != nil {
				continue
			}
			if r.unscaled == s {
				k = 1
			}
			lat[s] = append(lat[s], jt.latency*k)
		}
	}
	latencyMetrics(res, r.w, lat[r.primary], workRate(r.tasks, lat[other]))
	for _, s := range schedulers {
		res.note("%s: %d verified reps, median %.3f ms", s, len(lat[s]), median(lat[s])*1e3)
	}
}

func (r *taskrtRunner) layers(d time.Duration, sp *spanRecorder, res *result) {
	deadline := time.Now().Add(d * 6 / 10)
	type obs struct{ plain, traced []jobTimes }
	seen := map[string]*obs{"ws": {}, "dmda": {}}
	var (
		critSeconds, critShare, kernelShare, extractMs []float64
		events, places, modelPlaces                    int
	)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		for _, s := range schedulers {
			jt, err := r.job(s, nil, sp, 4*i)
			res.op(err)
			if err == nil && i > 0 {
				seen[s].plain = append(seen[s].plain, jt)
			}
			tr := trace.New()
			jt, err = r.job(s, tr, sp, 4*i+1)
			res.op(err)
			if err != nil || i == 0 {
				continue
			}
			seen[s].traced = append(seen[s].traced, jt)
			events += tr.Len()
			for _, e := range tr.OfKind(trace.Place) {
				places++
				if e.From == "model" {
					modelPlaces++
				}
			}
			if s != r.primary {
				continue
			}
			t0 := time.Now()
			cp := tr.CriticalPath()
			extractMs = append(extractMs, time.Since(t0).Seconds()*1e3)
			busy := 0.0
			for _, e := range tr.OfKind(trace.Task) {
				busy += e.Duration()
			}
			if mk := jt.rep.MakespanSeconds; mk > 0 {
				critSeconds = append(critSeconds, cp.Length)
				critShare = append(critShare, cp.Length/mk)
				kernelShare = append(kernelShare, busy/(float64(r.workers)*mk))
			}
		}
	}

	pick := func(jts []jobTimes, f func(jobTimes) float64) []float64 {
		out := make([]float64, len(jts))
		for i, jt := range jts {
			out[i] = f(jt)
		}
		return out
	}
	makespan := func(jt jobTimes) float64 { return jt.latency }
	ws, dmda := median(pick(seen["ws"].plain, makespan)), median(pick(seen["dmda"].plain, makespan))
	res.timing("taskrt.makespan_ws_ms", pick(seen["ws"].plain, makespan), 1e3)
	res.timing("taskrt.makespan_dmda_ms", pick(seen["dmda"].plain, makespan), 1e3)
	if ws > 0 {
		res.set("taskrt.dmda_over_ws", dmda/ws)
	}
	prim := seen[r.primary]
	if plain := median(pick(prim.plain, makespan)); plain > 0 {
		res.set("trace.overhead_ratio", median(pick(prim.traced, makespan))/plain)
	}
	perTask := 1e6 / float64(r.tasks)
	res.timing("taskrt.submit_us_per_task", pick(prim.plain, func(jt jobTimes) float64 { return jt.submit }), perTask)
	res.timing("taskrt.run_us_per_task", pick(prim.plain, func(jt jobTimes) float64 { return jt.run }), perTask)
	steals := median(pick(prim.plain, func(jt jobTimes) float64 { return float64(jt.rep.Steals) }))
	res.set("taskrt.steals", steals)
	res.set("taskrt.steal_share", steals/float64(r.tasks))
	res.set("taskrt.idle_share", median(pick(prim.plain, func(jt jobTimes) float64 {
		busy := 0.0
		for _, u := range jt.rep.PerUnit {
			busy += u.BusySeconds
		}
		return 1 - busy/(float64(r.workers)*jt.rep.MakespanSeconds)
	})))
	res.set("taskrt.fast_share", median(pick(prim.plain, func(jt jobTimes) float64 {
		return float64(jt.rep.TasksOnArch("x86")) / float64(jt.rep.Tasks)
	})))
	failedAttempts := 0
	for _, o := range seen {
		for _, jt := range append(o.plain, o.traced...) {
			failedAttempts += jt.rep.FailedAttempts
		}
	}
	res.set("taskrt.failed_attempts", float64(failedAttempts))
	res.set("taskrt.critpath_s", median(critSeconds))
	res.set("taskrt.critpath_share", median(critShare))
	res.set("blas.kernel_share", median(kernelShare))
	if places > 0 {
		res.set("taskrt.place_model_share", float64(modelPlaces)/float64(places))
	}
	res.set("trace.events", float64(events))
	res.set("trace.critpath_ms", median(extractMs))

	if r.probes != nil {
		r.probes(d*4/10, res)
	}
}

// setupFactor builds chol-smp (kind "cholesky", this-host pool) or lu-skew
// (kind "lu", 1 fast + 3 slow workers, warm models): the matrix from the
// seed, the serial reference factorization every rep is checked against, and
// for lu-skew the pre-warmed performance models.
func setupFactor(w workload, p params, kind string) (runner, error) {
	n, tile := 1024, 128
	if p.smoke {
		n, tile = 256, 64
	}
	var (
		pl       *core.Platform
		pristine *blas.Matrix
		warm     []byte // snapshot of the calibrated models; nil = let dmda self-calibrate
		submit   func(*taskrt.Runtime, int, int, *blas.Matrix) error
		factor   func(*blas.Matrix) error
		err      error
	)
	r := &taskrtRunner{w: w, warmup: 2, perRound: 1}
	switch kind {
	case "cholesky":
		pl, err = discover.Platform("this-host")
		r.workers, r.primary = p.workers, "ws"
		pristine = experiments.NewSPDMatrix(n, p.seed)
		submit, factor = experiments.SubmitTiledCholesky, blas.Potrf
		r.probes = func(d time.Duration, res *result) { probeCholesky(d, tile, p.seed, res) }
	case "lu":
		pl, err = core.NewBuilder("factor-hetero").
			Master("fast", core.Arch("x86"), core.Qty(1)).
			Master("slow", core.Arch("x86slow"), core.Qty(3)).
			Build()
		// A ws rep (~0.8 s, slow workers steal blindly) costs three dmda reps,
		// and is mostly the slow workers' sleeps.
		r.workers, r.primary, r.warmup, r.perRound, r.unscaled, r.longReps = 4, "dmda", 1, 3, "ws", true
		pristine = experiments.NewDiagDominantMatrix(n, p.seed)
		submit, factor = experiments.SubmitTiledLU, blas.Getrf
		if err == nil {
			warm, err = warmLUModels(tile, p.seed)
		}
		r.probes = func(d time.Duration, res *result) { probeKernels(d, luKernels(tile, p.seed), res) }
	}
	if err != nil {
		return nil, err
	}
	ref := pristine.Clone()
	if err := factor(ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", kind, err)
	}

	r.job = func(sched string, tr *trace.Trace, sp *spanRecorder, op int) (jobTimes, error) {
		var models *perfmodel.Store
		if warm != nil {
			// Every rep starts from the same calibrated history.
			models = perfmodel.NewStore()
			if err := models.RestoreJSON(warm); err != nil {
				return jobTimes{}, err
			}
		}
		m := pristine.Clone()
		rt, err := taskrt.New(taskrt.Config{
			Platform: pl, Mode: taskrt.Real, Scheduler: sched,
			Workers: r.workers, Models: models, Trace: tr,
		})
		if err != nil {
			return jobTimes{}, err
		}
		top := sp.begin(op, jobSpanName(sched, tr), -1)
		defer sp.end(top)
		var jt jobTimes
		t0 := time.Now()
		sp.timed(op, "experiments.SubmitTiled", top, func() { err = submit(rt, n, tile, m) })
		jt.submit = time.Since(t0).Seconds()
		if err != nil {
			return jt, err
		}
		r.tasks = rt.Tasks()
		t0 = time.Now()
		sp.timed(op, "taskrt.Run", top, func() { jt.rep, err = rt.Run() })
		jt.run = time.Since(t0).Seconds()
		if err != nil {
			return jt, err
		}
		jt.latency = jt.rep.MakespanSeconds
		var diff float64
		sp.timed(op, "verify", top, func() { diff = blas.MaxDiff(m, ref) })
		if !(diff <= 1e-9) {
			return jt, fmt.Errorf("%s under %s differs from the serial reference by %g", kind, sched, diff)
		}
		return jt, nil
	}
	return r, nil
}

func jobSpanName(sched string, tr *trace.Trace) string {
	if tr != nil {
		return "job:" + sched + "+trace"
	}
	return "job:" + sched
}

// luSlowRate is the Ext-K skew: an x86slow worker runs the real kernel and
// then sleeps flops/luSlowRate seconds (experiments.SubmitTiledLU's x86slow
// implementations do the sleeping).
const luSlowRate = 5e7

// warmLUModels times each LU tile kernel on this host (median of five
// calls) and records fast and slow rates at sizes bracketing the task flops,
// so dmda places from history from its first decision. It returns the
// store's snapshot; each rep restores a private copy.
func warmLUModels(tile int, seed int64) ([]byte, error) {
	models := perfmodel.NewStore()
	for _, k := range luKernels(tile, seed) {
		var times []float64
		for i := 0; i < 5; i++ {
			sec, err := k.call()
			if err != nil {
				return nil, err
			}
			times = append(times, sec)
		}
		rate := k.flops / median(times)
		for _, scale := range []float64{0.5, 1, 2} {
			sz := k.flops * scale
			if err := models.Model(k.codelet, "x86").Record(sz, sz/rate); err != nil {
				return nil, err
			}
			if err := models.Model(k.codelet, "x86slow").Record(sz, sz/rate+sz/luSlowRate); err != nil {
				return nil, err
			}
		}
	}
	return models.SnapshotJSON()
}

// setupDispatchFork builds the fork-join of no-op tasks. The timed region
// of a rep is SubmitBatch + Run; building the task structs is outside it.
func setupDispatchFork(w workload, p params) (runner, error) {
	tasks := 20000
	if p.smoke {
		tasks = 500
	}
	pl, err := discover.Platform("this-host")
	if err != nil {
		return nil, err
	}
	// Each worker counts the tasks it ran in its own cache line; the sum is
	// the output that is checked.
	type counter struct {
		n uint64
		_ [56]byte
	}
	counts := make([]counter, p.workers)
	noop, err := taskrt.NewCodelet("noop", taskrt.Impl{
		Arch: "x86",
		Func: func(tc *taskrt.TaskContext) error {
			counts[tc.WorkerID].n++
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	r := &taskrtRunner{w: w, workers: p.workers, tasks: tasks, primary: "dmda", warmup: 3, perRound: 1}
	r.probes = probePerfmodel
	r.job = func(sched string, tr *trace.Trace, sp *spanRecorder, op int) (jobTimes, error) {
		rt, err := taskrt.New(taskrt.Config{
			Platform: pl, Mode: taskrt.Real, Scheduler: sched, Workers: p.workers, Trace: tr,
		})
		if err != nil {
			return jobTimes{}, err
		}
		graph := make([]*taskrt.Task, 0, tasks)
		root := &taskrt.Task{Codelet: noop, Label: "root"}
		graph = append(graph, root)
		for i := 1; i < tasks; i++ {
			graph = append(graph, &taskrt.Task{Codelet: noop, Label: "noop", After: []*taskrt.Task{root}})
		}
		for i := range counts {
			counts[i].n = 0
		}
		top := sp.begin(op, jobSpanName(sched, tr), -1)
		defer sp.end(top)
		var jt jobTimes
		t0 := time.Now()
		sp.timed(op, "taskrt.SubmitBatch", top, func() { err = rt.SubmitBatch(graph) })
		jt.submit = time.Since(t0).Seconds()
		if err != nil {
			return jt, err
		}
		t1 := time.Now()
		sp.timed(op, "taskrt.Run", top, func() { jt.rep, err = rt.Run() })
		jt.run = time.Since(t1).Seconds()
		jt.latency = time.Since(t0).Seconds()
		if err != nil {
			return jt, err
		}
		var ran uint64
		for i := range counts {
			ran += counts[i].n
		}
		if ran != uint64(tasks) || jt.rep.Tasks != tasks {
			return jt, fmt.Errorf("fork-join under %s ran %d of %d tasks (report says %d)", sched, ran, tasks, jt.rep.Tasks)
		}
		return jt, nil
	}
	// The first job of a process pays for the runtime's lazy start-up; a
	// user pays it once, so it belongs to set-up, not to a rep.
	if _, err := r.job(r.primary, nil, nil, 0); err != nil {
		return nil, err
	}
	return r, nil
}
