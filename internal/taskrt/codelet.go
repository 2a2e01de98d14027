package taskrt

import "fmt"

// TaskContext is handed to real-mode implementation functions. It is valid
// only for the duration of the Impl call: a worker reuses it, Data included,
// for its next task, so a kernel must not keep tc or tc.Data after it returns.
type TaskContext struct {
	// WorkerID identifies the executing worker.
	WorkerID int
	// Arch is the architecture tag of the chosen implementation.
	Arch string
	// Data holds the payloads of the task's accesses, in access order.
	Data []any
	// Task is the executing task (labels, flops, accesses).
	Task *Task
}

// Payload returns the i-th access payload.
func (tc *TaskContext) Payload(i int) any { return tc.Data[i] }

// Kernel1, Kernel2 and Kernel3 are the one way a kernel meets its payloads:
// each binds f to the task's first n payloads, in access order, and returns
// the function an Impl runs. Accesses past the n-th only order the task (the
// stencil reads its neighbours through handles without payloads). A task with
// fewer than n payloads, or a payload of the wrong type, is an error that
// names the codelet and the payload; f is not reached.
func Kernel1[A any](f func(A) error) func(*TaskContext) error {
	return func(tc *TaskContext) error {
		b := binder{tc: tc, n: 1}
		a := bind[A](&b, 0)
		if b.err != nil {
			return b.err
		}
		return f(a)
	}
}

// Kernel2 binds a two-payload kernel; see Kernel1.
func Kernel2[A, B any](f func(A, B) error) func(*TaskContext) error {
	return func(tc *TaskContext) error {
		b := binder{tc: tc, n: 2}
		x, y := bind[A](&b, 0), bind[B](&b, 1)
		if b.err != nil {
			return b.err
		}
		return f(x, y)
	}
}

// Kernel3 binds a three-payload kernel; see Kernel1.
func Kernel3[A, B, C any](f func(A, B, C) error) func(*TaskContext) error {
	return func(tc *TaskContext) error {
		b := binder{tc: tc, n: 3}
		x, y, z := bind[A](&b, 0), bind[B](&b, 1), bind[C](&b, 2)
		if b.err != nil {
			return b.err
		}
		return f(x, y, z)
	}
}

// binder checks one task's payloads against a kernel of arity n, keeping the
// first mismatch.
type binder struct {
	tc  *TaskContext
	n   int
	err error
}

// bind returns payload i as a T, or T's zero value once b has failed.
func bind[T any](b *binder, i int) (v T) {
	if b.err == nil && len(b.tc.Data) < b.n {
		b.err = fmt.Errorf("taskrt: codelet %q takes %d payloads, the task has %d", b.codelet(), b.n, len(b.tc.Data))
	}
	if b.err != nil {
		return v
	}
	v, ok := b.tc.Data[i].(T)
	if !ok {
		b.err = fmt.Errorf("taskrt: codelet %q payload %d is %T, want %T", b.codelet(), i, b.tc.Data[i], v)
	}
	return v
}

func (b *binder) codelet() string {
	if t := b.tc.Task; t != nil && t.Codelet != nil {
		return t.Codelet.Name
	}
	return ""
}

// Impl is one architecture-specific implementation of a codelet, analogous
// to StarPU's cpu_func/cuda_func fields and to the paper's task
// implementation variants.
type Impl struct {
	// Arch is the PDL ARCHITECTURE tag of units that can run this
	// implementation ("x86", "gpu", "spe", ...).
	Arch string
	// Func is the real-mode kernel. It may be nil for implementations that
	// exist only as simulated variants (e.g. a gpu kernel on a machine
	// without GPUs); such implementations are skipped by the real engine.
	Func func(*TaskContext) error
	// SpeedFactor optionally scales the architecture's calibrated rate for
	// this codelet (1.0 when zero): some kernels reach a different fraction
	// of peak than DGEMM.
	SpeedFactor float64
}

// Codelet is a multi-variant computational kernel: the runtime-facing
// equivalent of a Cascabel task interface with its implementation variants.
type Codelet struct {
	Name  string
	Impls []Impl
}

// NewCodelet builds a codelet from implementations.
func NewCodelet(name string, impls ...Impl) (*Codelet, error) {
	if name == "" {
		return nil, fmt.Errorf("taskrt: codelet without name")
	}
	if len(impls) == 0 {
		return nil, fmt.Errorf("taskrt: codelet %q needs at least one implementation", name)
	}
	seen := map[string]bool{}
	for _, im := range impls {
		if im.Arch == "" {
			return nil, fmt.Errorf("taskrt: codelet %q has implementation without arch", name)
		}
		if seen[im.Arch] {
			return nil, fmt.Errorf("taskrt: codelet %q has duplicate implementation for %q", name, im.Arch)
		}
		seen[im.Arch] = true
	}
	return &Codelet{Name: name, Impls: impls}, nil
}

// ImplFor returns the implementation for an architecture tag, or nil.
func (c *Codelet) ImplFor(arch string) *Impl {
	for i := range c.Impls {
		if c.Impls[i].Arch == arch {
			return &c.Impls[i]
		}
	}
	return nil
}

// Archs returns the architecture tags the codelet supports.
func (c *Codelet) Archs() []string {
	out := make([]string, len(c.Impls))
	for i, im := range c.Impls {
		out[i] = im.Arch
	}
	return out
}

// Handle names a datum managed by the runtime: its size drives transfer
// costs, and its payload is what real-mode kernels operate on. Every datum
// starts out in host RAM, memory node 0.
type Handle struct {
	id      int
	Name    string
	Bytes   int64
	Payload any
}

// ID returns the registration-order id of the handle, its index in every
// Graph that holds it — the key external engines (the cluster master) use to
// name the datum on the wire.
func (h *Handle) ID() int { return h.id }

// NewHandle registers a datum of the given size with the runtime. A size of
// zero or less moves between memory nodes for free.
func (rt *Runtime) NewHandle(name string, bytes int64, payload any) *Handle {
	h := &Handle{id: len(rt.g.handles), Name: name, Bytes: bytes, Payload: payload}
	rt.g.handles = append(rt.g.handles, h)
	rt.hist = append(rt.hist, handleHist{lastW: -1, first: -1, last: -1})
	return h
}

// Access pairs a handle with its access mode.
type Access struct {
	Handle *Handle
	Mode   AccessMode
}

// R is shorthand for a read access.
func R(h *Handle) Access { return Access{Handle: h, Mode: Read} }

// W is shorthand for a write access.
func W(h *Handle) Access { return Access{Handle: h, Mode: Write} }

// RW is shorthand for a readwrite access.
func RW(h *Handle) Access { return Access{Handle: h, Mode: ReadWrite} }

// Task is one unit of work: a codelet invocation over concrete handles.
type Task struct {
	Codelet  *Codelet
	Accesses []Access
	// Flops is the work size used by cost models (e.g. 2·m·n·k for GEMM
	// tiles). Zero-flop tasks only pay launch overhead in sim mode.
	Flops float64
	// Priority orders tasks within some schedulers (higher first).
	Priority int
	// Label annotates traces.
	Label string
	// Where restricts simulated placement to the named PU ids (an entry
	// also matches its quantity-expanded instances, e.g. "host" matches
	// "host.3"). Empty means any compatible unit. This realises the paper's
	// execution groups: "denoting sub-parts of a heterogeneous platform
	// where specific tasks are intended to execute" (Section IV-B). The
	// real engine's anonymous worker pool ignores it.
	Where []string
	// After adds explicit control dependencies (StarPU's tag dependencies)
	// on top of the implicit data-driven ones. Listed tasks must be earlier
	// tasks of the same graph.
	After []*Task

	// id is the one thing the runtime writes into a task: the key of every
	// table the graph and the engines keep about it (Graph.Deps, Graph.Dependents).
	id int
}

// ID returns the submission-order id.
func (t *Task) ID() int { return t.id }
