package taskrt

import (
	"fmt"
	"sort"
	"strings"
)

// UnitStats aggregates per-processing-unit execution statistics.
type UnitStats struct {
	ID    string
	Arch  string
	Tasks int
	// BusySeconds is virtual time in Sim mode, wall time in Real mode.
	BusySeconds float64
	// Steals counts tasks this unit obtained from other units' queues
	// (Real mode only).
	Steals int
}

// Report is the outcome of Runtime.Run.
type Report struct {
	Mode Mode
	// Scheduler is the policy that ran: the requested name, or "ws" when none
	// was requested.
	Scheduler string
	Tasks     int
	// MakespanSeconds is the end-to-end execution time: virtual in Sim
	// mode, wall-clock in Real mode.
	MakespanSeconds float64
	PerUnit         []UnitStats
	// Transfer statistics (Sim mode only).
	TransferBytes   int64
	TransferSeconds float64
	TransferCount   int

	// Fault-tolerance statistics (zero unless failures occurred).

	// FailedAttempts counts task attempts that ended in failure (injected,
	// codelet error, or watchdog) and were recovered from.
	FailedAttempts int
	// RetriedTasks counts distinct tasks that needed at least one retry.
	RetriedTasks int
	// WatchdogTrips counts hung attempts the watchdog converted to failures.
	WatchdogTrips int
	// Blacklisted lists the units taken out of scheduling by failures and
	// still offline at the end of the run, sorted.
	Blacklisted []string
	// Steals totals the per-unit steal counts (Real mode only, where both
	// dispatchers steal; 0 in Sim).
	Steals int
}

// BlacklistedUnits returns how many units ended the run blacklisted.
func (r *Report) BlacklistedUnits() int { return len(r.Blacklisted) }

// BusyUnits returns how many units executed at least one task.
func (r *Report) BusyUnits() int {
	n := 0
	for _, u := range r.PerUnit {
		if u.Tasks > 0 {
			n++
		}
	}
	return n
}

// UnitByID returns the stats row for a unit id.
func (r *Report) UnitByID(id string) (UnitStats, bool) {
	for _, u := range r.PerUnit {
		if u.ID == id {
			return u, true
		}
	}
	return UnitStats{}, false
}

// TasksOnArch sums tasks executed on units of the given architecture.
func (r *Report) TasksOnArch(arch string) int {
	n := 0
	for _, u := range r.PerUnit {
		if u.Arch == arch {
			n += u.Tasks
		}
	}
	return n
}

// String renders a human-readable execution summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s sched=%s tasks=%d makespan=%.6fs", r.Mode, r.Scheduler, r.Tasks, r.MakespanSeconds)
	if r.Steals > 0 {
		fmt.Fprintf(&b, " steals=%d", r.Steals)
	}
	if r.TransferCount > 0 {
		fmt.Fprintf(&b, " transfers=%d (%.1f MB, %.6fs)", r.TransferCount, float64(r.TransferBytes)/(1<<20), r.TransferSeconds)
	}
	if r.FailedAttempts > 0 || len(r.Blacklisted) > 0 {
		fmt.Fprintf(&b, " failures=%d retried=%d watchdog=%d blacklisted=%v",
			r.FailedAttempts, r.RetriedTasks, r.WatchdogTrips, r.Blacklisted)
	}
	b.WriteString("\n")
	units := append([]UnitStats(nil), r.PerUnit...)
	sort.Slice(units, func(i, j int) bool { return units[i].ID < units[j].ID })
	for _, u := range units {
		if u.Tasks == 0 {
			continue
		}
		util := 0.0
		if r.MakespanSeconds > 0 {
			util = u.BusySeconds / r.MakespanSeconds
		}
		fmt.Fprintf(&b, "  %-10s %-4s tasks=%-5d busy=%.6fs util=%.0f%%\n", u.ID, u.Arch, u.Tasks, u.BusySeconds, util*100)
	}
	return b.String()
}

// Speedup returns base.MakespanSeconds / r.MakespanSeconds: how much faster
// r is than base.
func (r *Report) Speedup(base *Report) float64 {
	if r.MakespanSeconds <= 0 {
		return 0
	}
	return base.MakespanSeconds / r.MakespanSeconds
}
