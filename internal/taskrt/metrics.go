package taskrt

import (
	"fmt"

	"repro/internal/metrics"
)

// Runtime metrics: every engine run instruments the shared metrics.Default
// registry, so any process that links taskrt (pdlserved, benches, services
// embedding the runtime) exposes one taskrt_* family set per scrape.
// Counters are cumulative across runs in the process; per-unit labels are
// bounded by the worker/unit count, never by task count.
//
// Sim-mode runs record *virtual* seconds into the same families (labelled
// by PDL unit id rather than workerN); the busy/latency figures are only
// comparable within one mode.
//
// Hot-path cost: the real engine makes one histogram observation per task
// execution (three atomic ops via a per-worker cached handle), live, because a
// scrape in the middle of a run must see it progress. The sim engine observes
// into a per-unit metrics.LocalHistogram, no shared word touched, and flushes
// every unit's buffer once when runSim returns, on error too: a scrape ends
// each run with the counts per-task observations would have left. Failed
// attempts, requeues and watchdog trips are counted where they happen, so a
// run that gives up counts them too; the rest merges once a run completes.

// taskSecondsBuckets span µs-scale no-op dispatch tasks up to second-scale
// kernels.
var taskSecondsBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

var rtm = struct {
	runs           *metrics.CounterVec   // {mode}
	runSeconds     *metrics.CounterVec   // {mode}
	tasks          *metrics.CounterVec   // {unit}
	taskSeconds    *metrics.HistogramVec // {unit}
	busySeconds    *metrics.CounterVec   // {unit}
	busyRatio      *metrics.GaugeVec     // {unit}
	queueDepth     *metrics.GaugeVec     // {unit}
	steals         *metrics.CounterVec   // {unit}
	schedDecisions *metrics.CounterVec   // {policy, reason}
	forcedSteals   *metrics.Counter
	prefetches     *metrics.Counter
	schedTransfer  *metrics.Counter
	retries        *metrics.Counter
	failures       *metrics.Counter
	watchdog       *metrics.Counter
	blacklisted    *metrics.GaugeVec // {unit}
	transfers      *metrics.Counter
	transferB      *metrics.Counter
}{
	runs: metrics.Default.CounterVec("taskrt_runs_total",
		"Completed runs of a task graph, by engine mode.", "mode"),
	runSeconds: metrics.Default.CounterVec("taskrt_run_seconds_total",
		"Summed makespan of completed runs (wall in real mode, virtual in sim), by engine mode.", "mode"),
	tasks: metrics.Default.CounterVec("taskrt_tasks_total",
		"Tasks executed successfully, by PDL unit id.", "unit"),
	taskSeconds: metrics.Default.HistogramVec("taskrt_task_seconds",
		"Task execution latency, by PDL unit id.", taskSecondsBuckets, "unit"),
	busySeconds: metrics.Default.CounterVec("taskrt_worker_busy_seconds_total",
		"Summed kernel execution time, by PDL unit id.", "unit"),
	busyRatio: metrics.Default.GaugeVec("taskrt_worker_busy_ratio",
		"Busy/makespan ratio of the unit in the most recent run.", "unit"),
	queueDepth: metrics.Default.GaugeVec("taskrt_queue_depth",
		"Sampled ready-queue depth, by worker deque (real mode; 'injector' is the shared inject queue).", "unit"),
	steals: metrics.Default.CounterVec("taskrt_steals_total",
		"Tasks obtained by stealing from another worker's deque, by thief unit.", "unit"),
	schedDecisions: metrics.Default.CounterVec("taskrt_sched_decisions_total",
		"Real-engine placement decisions by policy and prediction source: model = perfmodel history, fallback = observed worker mean, cold = no history anywhere.", "policy", "reason"),
	forcedSteals: metrics.Default.Counter("taskrt_steal_forced_total",
		"Steals the dmda force valve let through unconditionally: a thief's sweeps were declined as EFT-unfavorable while the whole pool completed nothing for dmdaStealForceAfter, so the placement model is presumed wrong. A finding whenever it moves."),
	prefetches: metrics.Default.Counter("taskrt_prefetch_hints_total",
		"Prefetch hints issued by the data-aware dmda dispatcher: placements that marked a read operand resident on the target memory node ahead of dequeue."),
	schedTransfer: metrics.Default.Counter("taskrt_sched_transfer_seconds_total",
		"Modelled interconnect transfer time the data-aware dmda dispatcher charged into placement scores."),
	retries: metrics.Default.Counter("taskrt_retries_total",
		"Failed task attempts re-queued for retry."),
	failures: metrics.Default.Counter("taskrt_failed_attempts_total",
		"Task attempts that ended in failure (injected, codelet error, or watchdog)."),
	watchdog: metrics.Default.Counter("taskrt_watchdog_trips_total",
		"Hung attempts converted to failures by the watchdog."),
	blacklisted: metrics.Default.GaugeVec("taskrt_unit_blacklisted",
		"1 while the unit is blacklisted by the fault-tolerance layer, else 0.", "unit"),
	transfers: metrics.Default.Counter("taskrt_transfers_total",
		"Data transfers staged between memory nodes (sim mode)."),
	transferB: metrics.Default.Counter("taskrt_transfer_bytes_total",
		"Bytes moved between memory nodes (sim mode)."),
}

// workerUnitID names real-mode worker w in metrics and traces.
func workerUnitID(w int) string { return fmt.Sprintf("worker%d", w) }

// recordReport merges a completed run's aggregate statistics into the
// process-wide families.
func recordReport(rep *Report) {
	mode := rep.Mode.String()
	rtm.runs.With(mode).Inc()
	rtm.runSeconds.With(mode).Add(rep.MakespanSeconds)
	for _, u := range rep.PerUnit {
		rtm.tasks.With(u.ID).Add(float64(u.Tasks))
		rtm.busySeconds.With(u.ID).Add(u.BusySeconds)
		if u.Steals > 0 {
			rtm.steals.With(u.ID).Add(float64(u.Steals))
		}
		if rep.MakespanSeconds > 0 {
			rtm.busyRatio.With(u.ID).Set(u.BusySeconds / rep.MakespanSeconds)
		}
	}
	rtm.transfers.Add(float64(rep.TransferCount))
	rtm.transferB.Add(float64(rep.TransferBytes))
	// The blacklist gauge is 1 while a unit is blacklisted, else 0 — per its
	// own help text. Every unit the run reports on and does not list as
	// blacklisted is healthy now, including units blacklisted by an earlier
	// run that have since recovered, so clear those explicitly.
	bl := make(map[string]bool, len(rep.Blacklisted))
	for _, id := range rep.Blacklisted {
		bl[id] = true
		rtm.blacklisted.With(id).Set(1)
	}
	for _, u := range rep.PerUnit {
		if !bl[u.ID] {
			rtm.blacklisted.With(u.ID).Set(0)
		}
	}
}
