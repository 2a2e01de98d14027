package taskrt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// FaultEvent is one injected processing-unit failure. Exactly one trigger
// must be set: AtTime (the unit dies at that virtual/wall time) or
// AfterTasks (the unit dies on its Nth task attempt, 1-based).
//
// Unit names differ per engine: the simulated engine uses expanded simhw
// unit ids ("dev0", "host.3"); the real engine uses worker ids ("worker0").
// Events naming unknown units are inert.
type FaultEvent struct {
	// Unit identifies the failing processing unit.
	Unit string
	// AtTime, when > 0, fails the unit at this time: virtual seconds in Sim
	// mode, wall-clock seconds since Run start in Real mode. In Sim mode the
	// failure manifests on the first task whose execution on the unit would
	// reach past AtTime; in Real mode it manifests on the first task the
	// worker picks up after AtTime has elapsed.
	AtTime float64
	// AfterTasks, when > 0, fails the unit on its Nth task attempt
	// (1-based). In Sim mode the kernel crashes halfway through; in Real
	// mode the attempt fails at launch, before the kernel touches data.
	AfterTasks int
	// Hang makes the failure manifest as a hung kernel instead of a crash:
	// detection is delayed until the watchdog timeout (the task's estimate ×
	// watchdogFactor) expires, so hangs cost more than crashes but can never
	// deadlock Run.
	Hang bool
	// RecoverAfter, when > 0, brings the unit back online this many seconds
	// after failure detection (a transient fault). Zero means the unit is
	// blacklisted for the rest of the run.
	RecoverAfter float64
}

// FaultPlan is a deterministic schedule of injected failures. For a fixed
// plan (and runtime seed) a simulated execution is bit-for-bit reproducible,
// which is what makes fault-tolerance behaviour testable.
type FaultPlan struct {
	// Seed identifies the plan; RandomFaultPlan derives its events from it.
	Seed int64
	// Events are the injected failures. Multiple events may target the same
	// unit (e.g. a transient hang followed by a permanent crash); they fire
	// in slice order.
	Events []FaultEvent
}

// Validate checks that every event names a unit and has exactly one trigger.
func (p *FaultPlan) Validate() error {
	for i := range p.Events {
		f := &p.Events[i]
		if f.Unit == "" {
			return fmt.Errorf("taskrt: fault event %d has no unit", i)
		}
		if (f.AtTime > 0) == (f.AfterTasks > 0) {
			return fmt.Errorf("taskrt: fault event %d (unit %q) needs exactly one of AtTime/AfterTasks", i, f.Unit)
		}
		if f.AtTime < 0 || f.AfterTasks < 0 || f.RecoverAfter < 0 {
			return fmt.Errorf("taskrt: fault event %d (unit %q) has negative timing", i, f.Unit)
		}
	}
	return nil
}

// forUnit returns the plan's events for one unit, in slice order.
func (p *FaultPlan) forUnit(unit string) []FaultEvent {
	if p == nil {
		return nil
	}
	var out []FaultEvent
	for _, f := range p.Events {
		if f.Unit == unit {
			out = append(out, f)
		}
	}
	return out
}

// Units returns the distinct unit ids named by the plan, sorted.
func (p *FaultPlan) Units() []string {
	seen := map[string]bool{}
	for _, f := range p.Events {
		seen[f.Unit] = true
	}
	out := make([]string, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// RandomFaultPlan generates a seeded pseudo-random plan over the given
// units: each unit receives up to two events mixing time and task-count
// triggers, hangs and transient recoveries, with all times drawn from
// (0, horizon]. The same (seed, units, horizon) always yields the same plan
// — the deterministic input the property-based fault-tolerance tests need.
func RandomFaultPlan(seed int64, units []string, horizon float64) *FaultPlan {
	if horizon <= 0 {
		horizon = 1
	}
	rng := rand.New(rand.NewSource(seed))
	plan := &FaultPlan{Seed: seed}
	for _, u := range units {
		n := rng.Intn(3) // 0, 1 or 2 events for this unit
		for i := 0; i < n; i++ {
			f := FaultEvent{Unit: u, Hang: rng.Float64() < 0.2}
			if rng.Float64() < 0.5 {
				f.AtTime = rng.Float64() * horizon
				if f.AtTime <= 0 {
					f.AtTime = horizon / 2
				}
			} else {
				f.AfterTasks = 1 + rng.Intn(4)
			}
			if rng.Float64() < 0.3 {
				f.RecoverAfter = rng.Float64() * horizon
				if f.RecoverAfter <= 0 {
					f.RecoverAfter = horizon / 4
				}
			}
			plan.Events = append(plan.Events, f)
		}
	}
	return plan
}

// RetryPolicy tunes failure recovery. The zero value takes defaults; any
// non-zero field activates fault tolerance even without a FaultPlan (so real
// codelet errors are retried instead of aborting the run).
type RetryPolicy struct {
	// MaxAttempts caps how often one task may fail before Run gives up
	// (default 4). Run's error then names the task, the attempt count, the
	// unit of the last attempt and the last cause.
	MaxAttempts int
	// TaskTimeout is an absolute watchdog timeout in seconds used in Real
	// mode when no perfmodel estimate is available (0 disables the
	// fallback watchdog).
	TaskTimeout float64
}

// DefaultMaxAttempts is RetryPolicy.MaxAttempts when zero.
const DefaultMaxAttempts = 4

// Retry timing, the same in both engines: the retry after a task's first
// failure waits retryBackoffBase seconds, each further one twice the last, at
// most retryBackoffCap. A hang is detected at watchdogFactor × the task's
// estimate — perfmodel history when the store has samples, else (Sim mode)
// the simulator's own cost model.
const (
	retryBackoffBase = 1e-3
	retryBackoffCap  = 0.1
	watchdogFactor   = 8.0
)

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	return p
}

// Backoff returns the capped exponential delay in seconds before the retry
// that follows a task's n-th failure (n starts at 1): base·2^(n−1), at most
// limit. It is the one backoff formula: the sim adds it to virtual time, the
// real engine (over retryBackoffBase and retryBackoffCap) and the cluster
// master (over its own base and cap) wait it out.
func Backoff(base, limit float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	return min(base*math.Pow(2, float64(n-1)), limit)
}

// retryWait is the real engine's wait before the retry that follows a task's
// n-th failure.
func retryWait(n int) time.Duration {
	return time.Duration(Backoff(retryBackoffBase, retryBackoffCap, n) * float64(time.Second))
}

// ftEnabled reports whether the fault-tolerance machinery is active: an
// injection plan, a dynamic tracker, or an explicit retry policy all switch
// it on. Without any of them the engines keep their fail-fast behaviour.
func (cfg *Config) ftEnabled() bool {
	return cfg.Faults != nil || cfg.Tracker != nil || cfg.Retry != (RetryPolicy{})
}

// faultQueue is the per-unit runtime view of pending injected events.
type faultQueue struct {
	events []FaultEvent
	next   int
}

// pending returns the next unconsumed event, or nil.
func (q *faultQueue) pending() *FaultEvent {
	if q == nil || q.next >= len(q.events) {
		return nil
	}
	return &q.events[q.next]
}

// consume marks the current event as fired.
func (q *faultQueue) consume() { q.next++ }
