package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// metricDef names one metric. The tables in metrics.go are what
// BENCHMARK.json is checked against.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen by
}

// result collects what one run of one workload measured.
type result struct {
	mu                sync.Mutex // guards attempted, failed and failures
	attempted, failed int
	values            map[string]float64
	samples           map[string]summary // within-run spread, for the table
	notes             []string
	failures          []string
	// ref is sampled by the pass between its reps, setupRef between set-ups.
	ref, setupRef hostRef
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]summary{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// timing reports a metric as the median of its samples (scaled to the
// metric's unit) and keeps count and quartiles for the table.
func (r *result) timing(name string, samples []float64, scale float64) {
	scaled := make([]float64, len(samples))
	for i, v := range samples {
		scaled[i] = v * scale
	}
	s := summarize(scaled)
	r.values[name] = s.Median
	r.samples[name] = s
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation; a non-nil err counts it as failed. It
// may be called from concurrent load phases.
func (r *result) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// runner is one set-up workload.
type runner interface {
	// measure runs the measured phase for about d with tracing off and
	// fills latency_p50_ms, latency_tail_ms and throughput_per_s.
	measure(d time.Duration, res *result)
	// layers runs the traced pass for about d: the workload again with
	// spans (and the programs' public trace hooks) on, then direct timed
	// calls into the layers the workload leans on.
	layers(d time.Duration, sp *spanRecorder, res *result)
	close()
}

// params sizes a run. Smoke shrinks every workload to a fraction of a
// second so a test can drive the whole harness; it does not change what a
// full run measures.
type params struct {
	seed    int64
	smoke   bool
	workers int // GOMAXPROCS = nproc: the budget for busy threads and connections
}

// workload is one entry of the benchmark.
type workload struct {
	name string
	why  string
	// tailP is the percentile latency_tail_ms reports: at most the highest one
	// that keeps ten samples beyond it at the nominal operation count
	// (nominalN) of a full-length run. It is fixed so that a faster program,
	// which completes more operations, does not silently change the estimator.
	tailP    float64
	nominalN int
	setup    func(w workload, p params) (runner, error)
}

var workloads = []workload{
	cholSMP, luSkew, dispatchFork, clusterGEMM, serveRead, serveWrite, simFig5,
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A run sets its workload up at least setupMinReps times, and goes on to
// setupMaxReps while the set-ups so far took under setupBudget in total;
// setup_s is the median. Cheap set-ups (milliseconds) need the extra reps
// for their median to repeat.
const (
	setupMinReps = 5
	setupMaxReps = 40
	setupBudget  = time.Second
)

// runWorkload sets the workload up (repeatedly when set-up time is
// reported) and runs one pass: end-to-end with tracing off, or per-layer.
func runWorkload(w workload, p params, seconds float64, traced bool) (*result, error) {
	res := newResult()
	minReps, maxReps := setupMinReps, setupMaxReps
	if traced || p.smoke {
		minReps, maxReps = 1, 1
	}
	var (
		r      runner
		setups []float64
		spent  time.Duration
		ref    *bracket
	)
	for i := 0; i < minReps || (i < maxReps && spent < setupBudget); i++ {
		if r != nil {
			r.close()
		}
		runtime.GC() // the previous instance's garbage is not this set-up's cost
		if ref == nil {
			ref = res.setupRef.bracket()
		}
		stopRef := res.setupRef.during() // samples inside the set-ups that take a quarter second
		t0 := time.Now()
		var err error
		r, err = w.setup(w, p)
		took := time.Since(t0)
		stopRef()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		spent += took
		setups = append(setups, took.Seconds()*ref.scale())
	}
	defer r.close()
	d := time.Duration(seconds * float64(time.Second))
	if !traced {
		res.timing("setup_s", setups, 1)
		r.measure(d, res)
		res.note("host reference: median %.3f ms over %d samples beside the reps, %.3f ms over %d beside the set-ups; nominal %g ms",
			median(res.ref.all())*1e3, len(res.ref.all()),
			median(res.setupRef.all())*1e3, len(res.setupRef.all()), refNominal*1e3)
		return res, nil
	}
	sp := newSpanRecorder()
	var before, after runtime.MemStats
	res.ref.burst(refBurst)
	runtime.ReadMemStats(&before)
	r.layers(d, sp, res)
	runtime.ReadMemStats(&after)
	res.ref.burst(refBurst)
	res.timing("probe.host_ref_ms", res.ref.all(), 1e3)
	if res.attempted > 0 {
		res.set("go.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(res.attempted))
	}
	res.set("go.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	path := fmt.Sprintf("%s/trace-%s.jsonl", outDir, w.name)
	if err := sp.writeJSONL(path); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", path, err)
	}
	return res, nil
}

// latencyMetrics fills the three end-to-end metrics every workload reports
// from per-operation latencies in seconds and a completed-work rate.
func latencyMetrics(res *result, w workload, latencies []float64, perSecond float64) {
	res.timing("latency_p50_ms", latencies, 1e3)
	res.set("latency_tail_ms", percentile(latencies, w.tailP)*1e3)
	res.set("throughput_per_s", perSecond)
	if want := tailPercentile(len(latencies)); want < w.tailP {
		res.note("only %d operations: p%g has fewer than ten samples beyond it", len(latencies), w.tailP*100)
	}
}

// scaledReps runs job back to back for about d, after warmup reps that are
// run and discarded, with the host reference sampled between and inside the
// reps. It counts each rep as an operation and returns the verified reps'
// seconds, scaled to the reference host speed.
func scaledReps(d time.Duration, warmup int, res *result, job func(i int) (float64, error)) []float64 {
	deadline := time.Now().Add(d)
	defer res.ref.during()()
	ref := res.ref.bracket()
	var lat []float64
	for i := 0; i < warmup+1 || time.Now().Before(deadline); i++ {
		sec, err := job(i)
		k := ref.scale()
		if i < warmup {
			continue
		}
		res.op(err)
		if err == nil {
			lat = append(lat, sec*k)
		}
	}
	return lat
}

// workRate is units of work per second at the median latency; 0 without one.
func workRate(units int, latencies []float64) float64 {
	if m := median(latencies); m > 0 {
		return float64(units) / m
	}
	return 0
}
