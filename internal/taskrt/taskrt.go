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
	"sync/atomic"

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

// Config configures a Runtime.
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

// Run lifecycle states (Runtime.state).
const (
	stateIdle int32 = iota // accepting submissions
	stateRunning
	stateDone
)

// Runtime accepts task submissions and executes them with Run. What it derives
// from them is kept in pointer-free tables indexed by id, so a Task or Handle
// holds only what its submitter wrote.
type Runtime struct {
	cfg     Config
	handles []*Handle // by Handle.ID()
	tasks   []*Task   // by Task.ID()

	// The edges, in compressed sparse rows: task i waits on the ids
	// deps[depOff[i]:depOff[i+1]] (depOff holds one entry more than there are
	// tasks), and succ[succOff[i]:succOff[i+1]] wait on it — deps' transpose,
	// built when an engine takes the graph (transpose).
	deps, depOff  []int
	succ, succOff []int

	// hist is every handle's submission history, by handle id; a handle's
	// readers since its last write are a list linked through reads.
	hist  []handleHist
	reads []readLink

	state atomic.Int32 // stateIdle → stateRunning → stateDone
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
	if cfg.Platform == nil {
		return nil, fmt.Errorf("taskrt: nil platform")
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Scheduler {
	case "":
		cfg.Scheduler = "ws"
	case "ws", "dmda":
	default:
		return nil, fmt.Errorf("taskrt: unknown scheduler %q; both modes implement \"ws\" and \"dmda\"", cfg.Scheduler)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	return &Runtime{cfg: cfg, depOff: []int{0}}, nil
}

// Submit registers a task for execution and derives its dependencies from
// the data-access history: readers depend on the last writer of each handle;
// writers additionally depend on all readers since that write (anti/output
// dependencies), exactly the implicit data-driven ordering StarPU applies.
func (rt *Runtime) Submit(t *Task) error {
	if err := rt.submittable(); err != nil {
		return err
	}
	return rt.submitOne(t)
}

// SubmitBatch registers tasks in order with one lifecycle check for the
// whole batch — the submission-side companion of the dispatcher's batched
// push path. Dependency derivation is identical to calling Submit in a
// loop: tasks later in the batch may depend on earlier ones (through shared
// handles or After). On error the failing task is reported by its batch
// index; tasks before it remain registered, exactly as sequential Submit
// calls would leave them.
func (rt *Runtime) SubmitBatch(tasks []*Task) error {
	if err := rt.submittable(); err != nil {
		return err
	}
	rt.tasks = slices.Grow(rt.tasks, len(tasks))
	rt.depOff = slices.Grow(rt.depOff, len(tasks))
	for i, t := range tasks {
		if err := rt.submitOne(t); err != nil {
			return fmt.Errorf("batch task %d: %w", i, err)
		}
	}
	return nil
}

// submittable checks the run lifecycle allows submissions.
func (rt *Runtime) submittable() error {
	switch rt.state.Load() {
	case stateRunning:
		return fmt.Errorf("taskrt: Submit while Run is in progress; submit all tasks before Run")
	case stateDone:
		return fmt.Errorf("taskrt: Submit after Run; a runtime is single-shot, create a new one")
	}
	return nil
}

// submitOne validates and registers one task (lifecycle already checked).
func (rt *Runtime) submitOne(t *Task) error {
	if t.Codelet == nil {
		return fmt.Errorf("taskrt: task without codelet")
	}
	if len(t.Codelet.Impls) == 0 {
		return fmt.Errorf("taskrt: codelet %q has no implementations", t.Codelet.Name)
	}
	if rt.owns(t) {
		return fmt.Errorf("taskrt: task %q submitted twice", t.Codelet.Name)
	}
	for i, a := range t.Accesses {
		h := a.Handle
		if h == nil {
			return fmt.Errorf("taskrt: task %q accesses nil handle", t.Codelet.Name)
		}
		// Every engine keeps its books in tables indexed by handle id: a
		// handle of another runtime would read someone else's row.
		if h.id >= len(rt.handles) || rt.handles[h.id] != h {
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
		if !rt.owns(dep) {
			return fmt.Errorf("taskrt: task %q depends on a task not yet submitted to this runtime", t.Codelet.Name)
		}
	}
	// Valid: only now does the task take an id, so ids stay dense — the index
	// of the task in rt.tasks — whatever was rejected before it. Its row of
	// deps is what follows from here.
	t.id = len(rt.tasks)
	id, from := int32(t.id), len(rt.deps)
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
	rt.tasks = append(rt.tasks, t)
	rt.depOff = append(rt.depOff, len(rt.deps))
	return nil
}

// addDep appends dep to the row of deps that starts at from, unless the row
// holds it already. A task waits on a handful of tasks: a scan of its row beats
// keeping a set.
func (rt *Runtime) addDep(from, dep int) {
	if !slices.Contains(rt.deps[from:], dep) {
		rt.deps = append(rt.deps, dep)
	}
}

// owns reports whether t is a task this runtime accepted.
func (rt *Runtime) owns(t *Task) bool {
	return t.id < len(rt.tasks) && rt.tasks[t.id] == t
}

// Tasks returns the number of submitted tasks.
func (rt *Runtime) Tasks() int { return len(rt.tasks) }

// Deps returns the ids of the tasks t waits for, in the order Submit derived
// them: its After list, then per access the handle's last writer and, for a
// write, the handle's readers since, each once. It is nil for a task this
// runtime did not accept. The slice is a row of the runtime's table: do not
// write to it.
func (rt *Runtime) Deps(t *Task) []int {
	if !rt.owns(t) {
		return nil
	}
	return rt.depsOf(t.id)
}

// Dependents returns the ids of the tasks waiting on t, ascending: the reverse
// edges of Deps. It is nil for a task this runtime did not accept, and, like
// Deps, a row of the runtime's table.
func (rt *Runtime) Dependents(t *Task) []int {
	if !rt.owns(t) {
		return nil
	}
	rt.transpose()
	return rt.succOf(t.id)
}

// depsOf is task id's row of deps, clipped so that an append cannot reach the
// next row.
func (rt *Runtime) depsOf(id int) []int {
	lo, hi := rt.depOff[id], rt.depOff[id+1]
	return rt.deps[lo:hi:hi]
}

// succOf is task id's row of succ; transpose must have run since the last
// submission.
func (rt *Runtime) succOf(id int) []int {
	lo, hi := rt.succOff[id], rt.succOff[id+1]
	return rt.succ[lo:hi:hi]
}

// transpose builds succ from deps, unless it is current, by one counting pass:
// count each task's dependents, turn the counts into row starts, then fill the
// rows visiting tasks in id order, so every row ascends.
func (rt *Runtime) transpose() {
	n := len(rt.tasks)
	if len(rt.succOff) == n+1 {
		return
	}
	off := make([]int, n+1)
	for _, d := range rt.deps {
		off[d+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	succ := make([]int, len(rt.deps))
	for t := 0; t < n; t++ {
		for _, d := range rt.depsOf(t) {
			succ[off[d]] = t
			off[d]++ // ends at the next row's start
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	rt.succ, rt.succOff = succ, off
}

// Graph hands the submitted task graph to an external engine: it returns
// every task (in submission order) together with every registered handle,
// and consumes the runtime — the same single-shot lifecycle Run enforces, so
// a graph can be executed either locally (Run) or by an external engine (the
// cluster master), never both. Further Submit or Run calls fail with the
// usual lifecycle errors; Deps and Dependents keep answering.
func (rt *Runtime) Graph() (tasks []*Task, handles []*Handle, err error) {
	if !rt.state.CompareAndSwap(stateIdle, stateDone) {
		return nil, nil, fmt.Errorf("taskrt: Graph after Run or Graph; a runtime is single-shot, create a new one")
	}
	rt.transpose()
	return rt.tasks, rt.handles, nil
}

// Run executes every submitted task and returns the execution report. A
// runtime is single-shot: Run may be called exactly once, and submissions
// are rejected from the moment it starts. Calling Run again — concurrently
// or after completion — returns a descriptive error instead of rerunning.
func (rt *Runtime) Run() (*Report, error) {
	if !rt.state.CompareAndSwap(stateIdle, stateRunning) {
		if rt.state.Load() == stateRunning {
			return nil, fmt.Errorf("taskrt: Run called twice; a Run is already in progress")
		}
		return nil, fmt.Errorf("taskrt: Run called twice; the runtime already ran, create a new one")
	}
	defer rt.state.Store(stateDone)
	var (
		rep *Report
		err error
	)
	switch rt.cfg.Mode {
	case Sim:
		rep, err = rt.runSim()
	case Real:
		rep, err = rt.runReal()
	default:
		return nil, fmt.Errorf("taskrt: unknown mode %v", rt.cfg.Mode)
	}
	if err != nil {
		return nil, err
	}
	recordReport(rep)
	if tr := rt.cfg.Trace; tr != nil {
		tr.SetMeta("mode", rt.cfg.Mode.String())
		tr.SetMeta("scheduler", rep.Scheduler)
		tr.SetMeta("tasks", strconv.Itoa(rep.Tasks))
		// The most recent traced run backs pdlserved's /debug/trace.
		trace.Publish(tr)
	}
	return rep, nil
}
