// Package taskrt is a StarPU-like task runtime for heterogeneous platforms:
// the scheduling and data-management substrate the paper's evaluation
// (Section IV-D) targets. Applications register codelets with one
// implementation per architecture, submit tasks whose data accesses carry
// explicit modes (read / write / readwrite, matching the paper's task
// annotations), and the runtime derives inter-task dependencies, moves data
// between distinct memory spaces and maps tasks onto processing units.
//
// Two execution engines share the same task-graph front end:
//
//   - the real engine runs implementation functions on goroutine workers and
//     reports wall-clock times — used for CPU-only configurations on the
//     actual host; and
//   - the simulated engine executes the graph in virtual time on a
//     calibrated simhw.Machine built from a PDL description — the
//     substitution for the paper's GPU testbed.
//
// Both engines run the same two scheduling policies: ws (work stealing, the
// default) and dmda (deque model data aware: minimise estimated completion
// including transfer costs, StarPU's cost-model policy).
package taskrt

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/perfmodel"
	"repro/internal/trace"
)

// AccessMode declares how a task uses a data handle, mirroring the paper's
// parameter access specifiers (A:readwrite, B:read).
type AccessMode int

const (
	// Read declares a read-only access.
	Read AccessMode = iota
	// Write declares a write-only access (previous contents unused).
	Write
	// ReadWrite declares an in-place update.
	ReadWrite
)

// String returns the annotation spelling of the mode.
func (m AccessMode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	case ReadWrite:
		return "readwrite"
	default:
		return fmt.Sprintf("AccessMode(%d)", int(m))
	}
}

// ParseAccessMode parses the annotation spelling ("read", "write",
// "readwrite", and the abbreviations r/w/rw).
func ParseAccessMode(s string) (AccessMode, error) {
	switch s {
	case "read", "r", "in":
		return Read, nil
	case "write", "w", "out":
		return Write, nil
	case "readwrite", "rw", "inout":
		return ReadWrite, nil
	}
	return 0, fmt.Errorf("taskrt: unknown access mode %q", s)
}

// Reads reports whether the mode observes previous contents.
func (m AccessMode) Reads() bool { return m == Read || m == ReadWrite }

// Writes reports whether the mode produces new contents.
func (m AccessMode) Writes() bool { return m == Write || m == ReadWrite }

// Mode selects the execution engine.
type Mode int

const (
	// Real executes implementation functions on goroutine workers.
	Real Mode = iota
	// Sim executes the graph in virtual time on the calibrated machine.
	Sim
)

func (m Mode) String() string {
	if m == Real {
		return "real"
	}
	return "sim"
}

// Config configures a Runtime, or one Run of a Graph.
type Config struct {
	// Platform describes the machine. In Sim mode it parameterises the
	// hardware simulator; in Real mode its Masters' units, whatever their
	// architecture, are the workers (a ppc Master gives ppc workers).
	Platform *core.Platform
	// Mode selects the engine (default Real).
	Mode Mode
	// Scheduler names the scheduling policy, the same two in both modes:
	// "ws" (work stealing, the default) and "dmda" (model-predicted earliest
	// finish time placement; see dispatch.go for the Real engine's).
	Scheduler string
	// Workers overrides the Real-mode worker count (default: the effective
	// unit count of every Master, whatever its architecture).
	Workers int
	// Models, when non-nil, receives execution-time observations in Real
	// mode (history-based performance models à la StarPU) and feeds the
	// "dmda" scheduler's placement predictions. When nil with Scheduler
	// "dmda", the Real engine creates a private store so the policy
	// self-calibrates within the run.
	Models *perfmodel.Store
	// Trace, when non-nil, receives one event per task execution and (in
	// Sim mode) per data transfer, plus failure/retry/blacklist/recover
	// events when fault tolerance is active.
	Trace *trace.Trace
	// Faults, when non-nil, injects deterministic unit failures (see
	// FaultPlan) and activates the fault-tolerance machinery: failed tasks
	// are retried with capped exponential backoff, falling back to a
	// different implementation variant when their unit class is gone, and
	// failed units are blacklisted.
	Faults *FaultPlan
	// Retry tunes failure recovery; the zero value takes defaults. Setting
	// any field activates fault tolerance even without a FaultPlan, so real
	// codelet errors are retried instead of aborting the run.
	Retry RetryPolicy
	// Tracker, when non-nil, mirrors in-flight blacklisting into the dynamic
	// platform descriptor: unit failures emit SetOffline, recoveries emit
	// SetOnline, and units the tracker already reports offline are skipped
	// by the schedulers from the start. Engine unit ids that the tracker
	// does not know (expanded instances like "host.3", real-mode worker
	// ids) are blacklisted locally only.
	Tracker *dynamic.Tracker
}

// validate checks cfg for New and Run, filling in the default scheduler.
func (cfg Config) validate() (Config, error) {
	if cfg.Platform == nil {
		return cfg, fmt.Errorf("taskrt: nil platform")
	}
	if cfg.Mode != Real && cfg.Mode != Sim {
		return cfg, fmt.Errorf("taskrt: unknown mode %v", cfg.Mode)
	}
	if err := cfg.Platform.Validate(); err != nil {
		return cfg, err
	}
	switch cfg.Scheduler {
	case "":
		cfg.Scheduler = "ws"
	case "ws", "dmda":
	default:
		return cfg, fmt.Errorf("taskrt: unknown scheduler %q; both modes implement \"ws\" and \"dmda\"", cfg.Scheduler)
	}
	if cfg.Faults != nil {
		return cfg, cfg.Faults.Validate()
	}
	return cfg, nil
}

// Runtime builds a task graph from submissions and runs it under its Config.
// What it derives is kept in pointer-free tables indexed by id, so a Task or
// Handle holds only what its submitter wrote. A zero Runtime builds a graph
// with no Config, to Run under any. A Runtime is not safe for concurrent use.
type Runtime struct {
	cfg Config
	// g is the graph so far, which Graph seals a copy of. Its succ/succOff are
	// current when succOff has one entry more than there are tasks.
	g Graph

	// hist is every handle's submission history, by handle id; a handle's
	// readers since its last write are a list linked through reads.
	hist  []handleHist
	reads []readLink
	// prio is the Priority of the last task submitted, which the next is
	// compared against for g.rising.
	prio int
	// slab is what is left of the chunk NewHandle cuts handles from.
	slab []Handle
}

// handleHist is what Submit derives a handle's dependencies from: the last
// task to write it and the first and last of its reads since (indices into
// Runtime.reads). -1 is none.
type handleHist struct {
	lastW, first, last int32
}

// readLink is one read in the runtime's reader log: the reading task and the
// next read of the same handle, -1 at the end of the list.
type readLink struct {
	task, next int32
}

// New creates a runtime. The platform must be a valid machine-model
// instance.
func New(cfg Config) (*Runtime, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	return &Runtime{cfg: cfg}, nil
}

// Submit registers a task for execution and derives its dependencies from
// the data-access history: readers depend on the last writer of each handle;
// writers additionally depend on all readers since that write (anti/output
// dependencies), exactly the implicit data-driven ordering StarPU applies.
// A task submitted after a Run is part of the next one.
func (rt *Runtime) Submit(t *Task) error {
	g := &rt.g
	if t.Codelet == nil {
		return fmt.Errorf("taskrt: task without codelet")
	}
	if len(t.Codelet.Impls) == 0 {
		return fmt.Errorf("taskrt: codelet %q has no implementations", t.Codelet.Name)
	}
	if g.owns(t) {
		return fmt.Errorf("taskrt: task %q submitted twice", t.Codelet.Name)
	}
	for i, a := range t.Accesses {
		h := a.Handle
		if h == nil {
			return fmt.Errorf("taskrt: task %q accesses nil handle", t.Codelet.Name)
		}
		// Every engine keeps its books in tables indexed by handle id: a
		// handle of another runtime would read someone else's row.
		if h.id >= len(g.handles) || g.handles[h.id] != h {
			return fmt.Errorf("taskrt: task %q accesses handle %q, which is not registered with this runtime", t.Codelet.Name, h.Name)
		}
		// Tasks touch a handful of handles: a linear scan beats allocating a
		// set on every submission.
		for _, b := range t.Accesses[:i] {
			if b.Handle == h {
				return fmt.Errorf("taskrt: task %q accesses handle %q twice", t.Codelet.Name, h.Name)
			}
		}
	}
	for _, dep := range t.After {
		if dep == nil {
			return fmt.Errorf("taskrt: task %q has nil explicit dependency", t.Codelet.Name)
		}
		if !g.owns(dep) {
			return fmt.Errorf("taskrt: task %q depends on a task not yet submitted to this runtime", t.Codelet.Name)
		}
	}
	// Valid: only now does the task take an id, so ids stay dense — the index
	// of the task in g.tasks — whatever was rejected before it. Its row of
	// deps is what follows from here.
	if len(g.depOff) == 0 {
		g.depOff = append(g.depOff, 0) // a zero Runtime's first row
	}
	t.id = len(g.tasks)
	id, from := int32(t.id), len(g.deps)
	for _, dep := range t.After {
		rt.addDep(from, dep.id)
	}
	for _, a := range t.Accesses {
		h := &rt.hist[a.Handle.id]
		if (a.Mode.Reads() || a.Mode == Write) && h.lastW >= 0 {
			// Even pure writes must wait for the previous writer (output
			// dependency) and for readers (anti dependency).
			rt.addDep(from, int(h.lastW))
		}
		if a.Mode.Writes() {
			for r := h.first; r >= 0; r = rt.reads[r].next {
				rt.addDep(from, int(rt.reads[r].task))
			}
			*h = handleHist{lastW: id, first: -1, last: -1}
			continue
		}
		link := int32(len(rt.reads))
		rt.reads = append(rt.reads, readLink{task: id, next: -1})
		if h.last >= 0 {
			rt.reads[h.last].next = link
		} else {
			h.first = link
		}
		h.last = link
	}
	if t.id > 0 && t.Priority > rt.prio {
		g.rising = true
	}
	rt.prio = t.Priority
	g.tasks = append(g.tasks, t)
	g.depOff = append(g.depOff, len(g.deps))
	// A graph has a handful of codelets, and its tasks of one are mostly
	// submitted together.
	if n := len(g.codelets); n == 0 || g.codelets[n-1] != t.Codelet && !slices.Contains(g.codelets, t.Codelet) {
		g.codelets = append(g.codelets, t.Codelet)
	}
	return nil
}

// SubmitBatch registers tasks in order, growing the runtime's tables once for
// the whole batch — the submission-side companion of the dispatcher's batched
// push path. Dependency derivation is identical to calling Submit in a
// loop: tasks later in the batch may depend on earlier ones (through shared
// handles or After). On error the failing task is reported by its batch
// index; tasks before it remain registered, exactly as sequential Submit
// calls would leave them.
func (rt *Runtime) SubmitBatch(tasks []*Task) error {
	// A task logs one read per read-mode access and, but for a write's
	// readers, waits on at most one task per access and per After entry.
	accesses, reads, after := 0, 0, 0
	for _, t := range tasks {
		accesses += len(t.Accesses)
		after += len(t.After)
		for _, a := range t.Accesses {
			if !a.Mode.Writes() {
				reads++
			}
		}
	}
	rt.g.tasks = slices.Grow(rt.g.tasks, len(tasks))
	rt.g.depOff = slices.Grow(rt.g.depOff, len(tasks)+1)
	rt.g.deps = slices.Grow(rt.g.deps, accesses+after)
	rt.reads = slices.Grow(rt.reads, reads)
	for i, t := range tasks {
		if err := rt.Submit(t); err != nil {
			return fmt.Errorf("batch task %d: %w", i, err)
		}
	}
	return nil
}

// addDep appends dep to the row of deps that starts at from, unless the row
// holds it already. A task waits on a handful of tasks: a scan of its row beats
// keeping a set.
func (rt *Runtime) addDep(from, dep int) {
	if !slices.Contains(rt.g.deps[from:], dep) {
		rt.g.deps = append(rt.g.deps, dep)
	}
}

// Tasks returns the number of submitted tasks.
func (rt *Runtime) Tasks() int { return len(rt.g.tasks) }

// Graph seals the tasks and handles submitted so far, with the edges between
// them, into a Graph. Later submissions append past what the Graph holds, so
// it never sees them; the runtime keeps accepting tasks, and its next Graph
// includes them.
func (rt *Runtime) Graph() *Graph {
	g := &rt.g
	if len(g.succOff) != len(g.tasks)+1 {
		g.transpose()
	}
	sealed := *g
	sealed.tasks, sealed.handles = slices.Clip(g.tasks), slices.Clip(g.handles)
	sealed.codelets = slices.Clip(g.codelets)
	sealed.deps, sealed.depOff = slices.Clip(g.deps), slices.Clip(g.depOff)
	return &sealed
}

// Run runs every task submitted so far: Run(rt.Graph(), cfg) with the
// runtime's Config. It may be called again, after further submissions too.
func (rt *Runtime) Run() (*Report, error) {
	return Run(rt.Graph(), rt.cfg)
}

// Run executes every task of g under cfg, which it validates as New does, and
// returns the execution report. It never writes g; Graph says what a caller
// of Real runs looks after.
func Run(g *Graph, cfg Config) (*Report, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	run := runReal
	if cfg.Mode == Sim {
		run = runSim
	}
	rep, err := run(g, cfg)
	if err != nil {
		return nil, err
	}
	recordReport(rep)
	if tr := cfg.Trace; tr != nil {
		tr.SetMeta("mode", cfg.Mode.String())
		tr.SetMeta("scheduler", rep.Scheduler)
		tr.SetMeta("tasks", strconv.Itoa(rep.Tasks))
		// The most recent traced run backs pdlserved's /debug/trace.
		trace.Publish(tr)
	}
	return rep, nil
}
