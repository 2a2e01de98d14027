// Package repo implements Cascabel's task-implementation repository (paper
// Section IV-C step 1): task interface names map to implementation variants,
// each declaring which platform patterns it targets. Variants come from two
// sources, exactly as in the paper's prototype — user code outlined with
// task annotations, and library implementations shipped with the repository
// (the GotoBLAS/CuBLAS DGEMM variants of the case study, here backed by
// internal/blas kernels and simulated GPU codelets).
package repo

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/csrc"
	"repro/internal/pragma"
	"repro/internal/taskrt"
)

// Origin records where a variant came from.
type Origin int

const (
	// User marks a variant registered from an annotated source program.
	User Origin = iota
	// Library marks a variant shipped with the repository.
	Library
)

func (o Origin) String() string {
	if o == User {
		return "user"
	}
	return "library"
}

// Variant is one task implementation.
type Variant struct {
	// Interface is the task interface name (taskidentifier), e.g. "Ivecadd".
	Interface string
	// Name is the unique implementation name (taskname), e.g. "vecadd01".
	Name string
	// Targets lists the platform patterns this variant is written for
	// (pattern.FromTarget names: "x86", "opencl", "cuda", "cell", ...).
	Targets []string
	// Params declare the parameter access modes.
	Params []pragma.Param
	// Arch is the taskrt architecture tag the variant executes on.
	Arch string
	// Kernel is the real-mode implementation; nil for variants that exist
	// only in simulation (e.g. GPU kernels on a machine without GPUs).
	Kernel func(*taskrt.TaskContext) error
	// SpeedFactor scales the calibrated architecture rate for this kernel
	// in simulation (1.0 when zero).
	SpeedFactor float64
	// Source is the original C body for user variants ("" for library).
	Source string
	// Origin records the provenance.
	Origin Origin
}

// TargetsPattern reports whether the variant lists the given target.
func (v *Variant) TargetsPattern(name string) bool {
	for _, t := range v.Targets {
		if t == name {
			return true
		}
	}
	return false
}

func (v *Variant) String() string {
	return fmt.Sprintf("%s/%s[%s] targets=%v", v.Interface, v.Name, v.Origin, v.Targets)
}

// Repository stores variants keyed by interface.
type Repository struct {
	byIface map[string][]*Variant
	byName  map[string]*Variant
}

// New returns an empty repository.
func New() *Repository {
	return &Repository{
		byIface: map[string][]*Variant{},
		byName:  map[string]*Variant{},
	}
}

// Add registers a variant. Implementation names must be unique across the
// repository (the paper's taskname uniqueness rule); every variant needs an
// interface, at least one target and an architecture tag.
func (r *Repository) Add(v *Variant) error {
	if v.Interface == "" || v.Name == "" {
		return fmt.Errorf("repo: variant needs interface and name (got %q/%q)", v.Interface, v.Name)
	}
	if len(v.Targets) == 0 {
		return fmt.Errorf("repo: variant %s/%s has no target platforms", v.Interface, v.Name)
	}
	if v.Arch == "" {
		return fmt.Errorf("repo: variant %s/%s has no architecture tag", v.Interface, v.Name)
	}
	if _, dup := r.byName[v.Name]; dup {
		return fmt.Errorf("repo: duplicate implementation name %q", v.Name)
	}
	r.byName[v.Name] = v
	r.byIface[v.Interface] = append(r.byIface[v.Interface], v)
	return nil
}

// VariantsFor returns the variants registered for an interface, in
// registration order.
func (r *Repository) VariantsFor(iface string) []*Variant {
	return append([]*Variant(nil), r.byIface[iface]...)
}

// ByName returns the variant with the given implementation name.
func (r *Repository) ByName(name string) (*Variant, bool) {
	v, ok := r.byName[name]
	return v, ok
}

// Interfaces returns the registered interface names, sorted.
func (r *Repository) Interfaces() []string {
	out := make([]string, 0, len(r.byIface))
	for k := range r.byIface {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered variants.
func (r *Repository) Len() int { return len(r.byName) }

// Codelet turns variants into the runtime codelet called name: one
// implementation per architecture, the first variant of each in the order
// given (the repository's preference order).
func Codelet(name string, variants []*Variant) (*taskrt.Codelet, error) {
	var impls []taskrt.Impl
	for _, v := range variants {
		if !slices.ContainsFunc(impls, func(im taskrt.Impl) bool { return im.Arch == v.Arch }) {
			impls = append(impls, taskrt.Impl{Arch: v.Arch, Func: v.Kernel, SpeedFactor: v.SpeedFactor})
		}
	}
	return taskrt.NewCodelet(name, impls...)
}

// targetArch maps a target platform pattern to the architecture tag its
// kernels execute on.
func targetArch(target string) string {
	switch target {
	case "opencl", "cuda", "host-device", "multi-gpu":
		return "gpu"
	case "cell":
		return "spe"
	default: // seq, x86, smp, starpu
		return "x86"
	}
}

// RegisterProgram registers every task definition of a parsed program as a
// user variant. The kernel registry maps implementation names to runnable
// Go kernels (the repository's "compiled binaries"); unknown names become
// sim-only variants.
func (r *Repository) RegisterProgram(prog *csrc.Program, kernels map[string]func(*taskrt.TaskContext) error) error {
	for _, td := range prog.TaskDefs() {
		a := td.Annotation
		arch := targetArch(a.Targets[0])
		v := &Variant{
			Interface: a.Interface,
			Name:      a.Name,
			Targets:   append([]string(nil), a.Targets...),
			Params:    append([]pragma.Param(nil), a.Params...),
			Arch:      arch,
			Source:    td.Func.Body,
			Origin:    User,
		}
		if kernels != nil {
			v.Kernel = kernels[a.Name]
		}
		if err := r.Add(v); err != nil {
			return err
		}
	}
	return nil
}
