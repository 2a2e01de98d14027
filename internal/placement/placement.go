// Package placement is the runtime's one predicted-finish-time placement
// rule. The engines that place on a prediction — the real engine's dmda
// dispatcher (workers in one machine) and the cluster master (nodes across
// machines) — gather plain values about each candidate; this package decides:
//
//	finish = backlog + exec × max(1, slowdown) + transfer
//
// transfer is a Link (latency + bytes × inverse bandwidth) summed over the
// platform's declared interconnect route. exec is Estimate's fallback chain:
// the performance model, else the candidate's own observed mean, else
// ("cold") the mean observed over the whole pool, else 0; Source names the
// link that answered and is the label on decision metrics and trace.Place
// events. slowdown is floored at 1 for every caller: beating the model is the
// model's to learn, not a discount. Candidate.Charge (finish − backlog) is
// the only amount an engine adds to a backlog at placement and subtracts at
// completion, steal or resubmission. Pick takes the smallest finish; on an
// exact tie a prioritised task goes to the smaller exec, and any remaining
// tie to the candidate nearest after a cursor the caller advances per pick,
// so placements made on no information spread over the pool. StealPays is
// the same comparison asked by an idle thief.
//
// Everything here is a value type: no interface or closure call per
// candidate, no allocation.
//
// The simulated engine (taskrt's simState) is deliberately not a caller: it
// asks the simulated machine for the true kernel time and overlaps a transfer
// with the unit's backlog (max, not sum) — a different quantity from a
// prediction. It shares only the bus-class link default below.
package placement

import "repro/internal/core"

// The link assumed for an interconnect inside one machine that is declared
// without BANDWIDTH or LATENCY: PCIe-2.0 class, 5 GiB/s and 10 µs.
const (
	BusBandwidth = 5.0 * (1 << 30) // bytes per second
	BusLatency   = 10e-6           // seconds
)

// Link prices moving bytes between two memory spaces.
type Link struct {
	LatNanos     float64
	NanosPerByte float64
}

// Bus returns the BusBandwidth/BusLatency default as a Link.
func Bus() Link {
	return Link{LatNanos: BusLatency * 1e9, NanosPerByte: 1e9 / BusBandwidth}
}

// Nanos is the modelled time to move the given number of bytes.
func (l Link) Nanos(bytes int64) int64 {
	return int64(l.LatNanos + l.NanosPerByte*float64(bytes))
}

// RouteLink sums the shortest declared interconnect route between two PUs
// into one Link, each hop contributing its LATENCY and inverse BANDWIDTH and
// def's value for a property it does not declare. ok is false when the
// platform declares no route (or pl is nil); what an unroutable pair costs is
// the caller's decision.
func RouteLink(pl *core.Platform, from, to string, def Link) (l Link, ok bool) {
	if pl == nil {
		return Link{}, false
	}
	route, err := pl.Route(from, to)
	if err != nil || len(route) == 0 {
		return Link{}, false
	}
	for i := range route {
		if lat, ok := route[i].LatencySeconds(); ok {
			l.LatNanos += lat * 1e9
		} else {
			l.LatNanos += def.LatNanos
		}
		if bw, ok := route[i].BandwidthBytesPerSec(); ok && bw > 0 {
			l.NanosPerByte += 1e9 / bw
		} else {
			l.NanosPerByte += def.NanosPerByte
		}
	}
	return l, true
}

// Source says which link of the estimate chain produced an execution time.
type Source uint8

const (
	Model    Source = iota // the performance model's estimate
	Fallback               // the candidate's own observed mean
	Cold                   // no history on the candidate: pool mean, or 0
)

var sourceNames = [...]string{Model: "model", Fallback: "fallback", Cold: "cold"}

func (s Source) String() string { return sourceNames[s] }

// History is an observed total: Nanos spent over Count executions.
type History struct {
	Nanos, Count int64
}

// Estimate predicts an execution time in nanoseconds. model and ok are the
// performance model's answer for the candidate, own is what the candidate
// itself has been observed to take, pool what all candidates together have.
func Estimate(model int64, ok bool, own, pool History) (int64, Source) {
	switch {
	case ok:
		return model, Model
	case own.Count > 0:
		return own.Nanos / own.Count, Fallback
	case pool.Count > 0:
		return pool.Nanos / pool.Count, Cold
	}
	return 0, Cold
}

// Candidate is a task's bid for one place it could run, in nanoseconds. (Four
// fields and 32 bytes on purpose: the compiler keeps such a struct in
// registers, and a pick over n candidates is the dispatchers' hot path.)
type Candidate struct {
	Exec     int64   // Estimate's answer
	Xfer     int64   // modelled time to bring the task's data there
	Slowdown float64 // observed/modelled speed ratio; values below 1 count as 1
	Source   Source  // where Exec came from
}

// Charge is what placing the task adds to the place's backlog and what
// releasing it takes away.
func (c Candidate) Charge() int64 {
	if c.Slowdown > 1 {
		return int64(float64(c.Exec)*c.Slowdown) + c.Xfer
	}
	return c.Exec + c.Xfer
}

// Finish is the predicted completion time, relative to now, behind a backlog
// of charges placed there and not yet released.
func (c Candidate) Finish(backlog int64) int64 { return backlog + c.Charge() }

// StealPays reports whether an idle thief finishes a task sooner than its
// victim, whose backlog includes the task, works through to it.
func StealPays(thief Candidate, thiefBacklog, victimBacklog int64) bool {
	return thief.Finish(thiefBacklog) < victimBacklog
}

// Pick accumulates the best of the candidates offered to it.
type Pick struct {
	n, start    int
	prioritised bool

	index  int
	finish int64
	best   Candidate
}

// NewPick starts a pick over candidates indexed 0..n-1 (n > 0), visited in
// the order At gives: a rotation that begins at cursor mod n. Callers advance
// cursor on every pick. prioritised marks a task on the critical path.
func NewPick(n int, cursor uint64, prioritised bool) Pick {
	return Pick{n: n, start: int(cursor % uint64(n)), prioritised: prioritised, index: -1}
}

// At is the index of the k-th candidate to visit, 0 <= k < n.
func (p *Pick) At(k int) int {
	if k += p.start; k < p.n {
		return k
	}
	return k - p.n
}

// Offer considers candidate i behind the given backlog. Ineligible
// candidates simply are not offered; among equals the first offered wins,
// which in At order is the one nearest after the cursor.
func (p *Pick) Offer(i int, backlog int64, c Candidate) {
	finish := c.Finish(backlog)
	if p.index < 0 || finish < p.finish || p.prioritised && finish == p.finish && c.Exec < p.best.Exec {
		p.index, p.finish, p.best = i, finish, c
	}
}

// Best returns the winning index and candidate; ok is false when nothing was
// offered.
func (p *Pick) Best() (i int, c Candidate, ok bool) {
	return p.index, p.best, p.index >= 0
}
