// Package mapping implements Cascabel's static task pre-selection (paper
// Section IV-C, step 2): the platform patterns declared by task
// implementation variants are matched against the PDL description of the
// target environment; variants whose patterns the target cannot satisfy are
// pruned, and execution groups from execute annotations are resolved to
// concrete processing-unit subsets via LogicGroupAttribute values.
package mapping

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/csrc"
	"repro/internal/pattern"
	"repro/internal/repo"
)

// Selection is the pruned variant set of one task interface for one target
// platform.
type Selection struct {
	Interface string
	// Variants are the surviving implementations in repository order.
	Variants []*repo.Variant
	// Bindings maps variant names to the pattern binding that satisfied the
	// variant's first matching target.
	Bindings map[string]*pattern.Binding
}

// ForArch returns the surviving variants with the given execution
// architecture.
func (s *Selection) ForArch(arch string) []*repo.Variant {
	var out []*repo.Variant
	for _, v := range s.Variants {
		if v.Arch == arch {
			out = append(out, v)
		}
	}
	return out
}

// Archs returns the distinct execution architectures of surviving variants,
// in first-seen order.
func (s *Selection) Archs() []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range s.Variants {
		if !seen[v.Arch] {
			seen[v.Arch] = true
			out = append(out, v.Arch)
		}
	}
	return out
}

// HasFallback reports whether a Master-executable (x86) variant survived:
// the paper requires a sequential fall-back so the program always compiles
// for a Master PU.
func (s *Selection) HasFallback() bool {
	return len(s.ForArch("x86")) > 0
}

// Preselect prunes the variants of iface against the platform. It fails
// when the interface is unknown, when no variant matches the platform, or
// when no surviving variant can serve as the Master fall-back.
func Preselect(r *repo.Repository, iface string, pl *core.Platform) (*Selection, error) {
	all := r.VariantsFor(iface)
	if len(all) == 0 {
		return nil, fmt.Errorf("mapping: no implementation variants registered for interface %q", iface)
	}
	sel := &Selection{Interface: iface, Bindings: map[string]*pattern.Binding{}}
	for _, v := range all {
		for _, target := range v.Targets {
			p, err := pattern.FromTarget(target)
			if err != nil {
				return nil, fmt.Errorf("mapping: variant %s/%s: %w", v.Interface, v.Name, err)
			}
			b, err := pattern.Match(p, pl)
			if err != nil {
				continue // this target pattern unsatisfied; try the next
			}
			sel.Variants = append(sel.Variants, v)
			sel.Bindings[v.Name] = b
			break
		}
	}
	if len(sel.Variants) == 0 {
		return nil, fmt.Errorf("mapping: no variant of %q matches platform %q", iface, pl.Name)
	}
	if !sel.HasFallback() {
		return nil, fmt.Errorf("mapping: interface %q has no sequential fall-back variant for platform %q (paper IV-C requires one)", iface, pl.Name)
	}
	return sel, nil
}

// ResolveGroup resolves an executiongroup name to the PU subset carrying
// that LogicGroupAttribute. An empty group means "anywhere" and returns nil.
// Naming a group no PU carries is an error — a silent empty mapping would
// strand the task.
func ResolveGroup(pl *core.Platform, group string) ([]*core.PU, error) {
	if group == "" {
		return nil, nil
	}
	pus := pl.Group(group)
	if len(pus) == 0 {
		return nil, fmt.Errorf("mapping: execution group %q names no PU in platform %q", group, pl.Name)
	}
	return pus, nil
}

// SitePlan is the mapping decision for one annotated call site.
type SitePlan struct {
	Site      *csrc.ExecuteStmt
	Selection *Selection
	// GroupPUs is the resolved execution group (nil = any unit).
	GroupPUs []*core.PU
}

// Plan is the full static mapping of a program onto a platform.
type Plan struct {
	Program  *csrc.Program // the program planned
	Platform *core.Platform
	Repo     *repo.Repository
	Sites    []*SitePlan
}

// PlanProgram pre-selects variants for every annotated call site of the
// program. Task definitions in the program must already be registered in
// the repository (repo.RegisterProgram).
func PlanProgram(prog *csrc.Program, r *repo.Repository, pl *core.Platform) (*Plan, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	plan := &Plan{Program: prog, Platform: pl, Repo: r}
	for _, es := range prog.ExecuteStmts() {
		sel, err := Preselect(r, es.Annotation.Interface, pl)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", es.Line, err)
		}
		group, err := ResolveGroup(pl, es.Annotation.Group)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", es.Line, err)
		}
		plan.Sites = append(plan.Sites, &SitePlan{Site: es, Selection: sel, GroupPUs: group})
	}
	if len(plan.Sites) == 0 {
		return nil, fmt.Errorf("mapping: program has no execute annotations")
	}
	return plan, nil
}

// Summary renders the plan for CLI output: one line per site listing the
// surviving variants and their target units.
func (p *Plan) Summary() string {
	out := fmt.Sprintf("platform %s\n", p.Platform.Name)
	for _, sp := range p.Sites {
		out += fmt.Sprintf("line %d: %s ->", sp.Site.Line, sp.Selection.Interface)
		for _, v := range sp.Selection.Variants {
			out += " " + v.Name + "(" + v.Arch + ")"
		}
		if sp.GroupPUs != nil {
			out += " group=["
			for i, pu := range sp.GroupPUs {
				if i > 0 {
					out += ","
				}
				out += pu.ID
			}
			out += "]"
		}
		out += "\n"
	}
	return out
}
