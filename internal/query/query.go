package query

import (
	"sort"

	"repro/internal/core"
)

// Q is a lazily evaluated node set over one platform. Methods narrow the set
// and can be chained; terminal methods (All, First, IDs, Count) materialise
// results in document order.
type Q struct {
	pl    *core.Platform
	nodes []*core.PU
	order map[*core.PU]int
}

// New returns a query rooted at every PU of the platform.
func New(pl *core.Platform) *Q {
	q := &Q{pl: pl, order: map[*core.PU]int{}}
	i := 0
	pl.Walk(func(pu, _ *core.PU) bool {
		q.order[pu] = i
		i++
		q.nodes = append(q.nodes, pu)
		return true
	})
	return q
}

func (q *Q) derive(nodes []*core.PU) *Q {
	return &Q{pl: q.pl, nodes: nodes, order: q.order}
}

// Filter keeps the PUs for which keep returns true.
func (q *Q) Filter(keep func(*core.PU) bool) *Q {
	var out []*core.PU
	for _, n := range q.nodes {
		if keep(n) {
			out = append(out, n)
		}
	}
	return q.derive(out)
}

// Class keeps PUs of the given class.
func (q *Q) Class(c core.Class) *Q {
	return q.Filter(func(p *core.PU) bool { return p.Class == c })
}

// Masters keeps Master PUs.
func (q *Q) Masters() *Q { return q.Class(core.Master) }

// Hybrids keeps Hybrid PUs.
func (q *Q) Hybrids() *Q { return q.Class(core.Hybrid) }

// Workers keeps Worker PUs.
func (q *Q) Workers() *Q { return q.Class(core.Worker) }

// WithArch keeps PUs whose ARCHITECTURE property equals arch.
func (q *Q) WithArch(arch string) *Q {
	return q.Filter(func(p *core.PU) bool { return p.Architecture() == arch })
}

// WithProp keeps PUs that carry the named property (any value).
func (q *Q) WithProp(name string) *Q {
	return q.Filter(func(p *core.PU) bool {
		_, ok := p.Descriptor.Get(name)
		return ok
	})
}

// WithPropValue keeps PUs whose named property equals value.
func (q *Q) WithPropValue(name, value string) *Q {
	return q.Filter(func(p *core.PU) bool { return p.Descriptor.Value(name) == value })
}

// InGroup keeps PUs carrying the LogicGroupAttribute group.
func (q *Q) InGroup(group string) *Q {
	return q.Filter(func(p *core.PU) bool { return p.InGroup(group) })
}

// ControlledBy keeps PUs whose controller chain includes the PU with the
// given id (direct or transitive control).
func (q *Q) ControlledBy(id string) *Q {
	root := q.pl.FindPU(id)
	if root == nil {
		return q.derive(nil)
	}
	in := map[*core.PU]bool{}
	root.Walk(func(n, _ *core.PU) bool {
		if n != root {
			in[n] = true
		}
		return true
	})
	return q.Filter(func(p *core.PU) bool { return in[p] })
}

// Select narrows the set with a parsed selector expression.
func (q *Q) Select(src string) (*Q, error) {
	sel, err := ParseSelector(src)
	if err != nil {
		return nil, err
	}
	matched := evalSelector(q.pl, sel)
	in := map[*core.PU]bool{}
	for _, m := range matched {
		in[m] = true
	}
	return q.Filter(func(p *core.PU) bool { return in[p] }), nil
}

// Head keeps the first n matched PUs in document order.
func (q *Q) Head(n int) *Q {
	all := q.All()
	if n < len(all) {
		all = all[:n]
	}
	return q.derive(all)
}

// All returns the matched PUs in document order.
func (q *Q) All() []*core.PU {
	out := append([]*core.PU(nil), q.nodes...)
	sort.Slice(out, func(i, j int) bool { return q.order[out[i]] < q.order[out[j]] })
	return out
}

// First returns the first matched PU in document order, or nil.
func (q *Q) First() *core.PU {
	all := q.All()
	if len(all) == 0 {
		return nil
	}
	return all[0]
}

// Count returns the number of matched PUs.
func (q *Q) Count() int { return len(q.nodes) }

// TotalUnits sums the effective quantities of the matched PUs.
func (q *Q) TotalUnits() int {
	n := 0
	for _, p := range q.nodes {
		n += p.EffectiveQuantity()
	}
	return n
}

// IDs returns the ids of the matched PUs in document order.
func (q *Q) IDs() []string {
	all := q.All()
	ids := make([]string, len(all))
	for i, p := range all {
		ids[i] = p.ID
	}
	return ids
}

// Select evaluates a selector expression against a platform and returns the
// matched PUs in document order.
func Select(pl *core.Platform, src string) ([]*core.PU, error) {
	sel, err := ParseSelector(src)
	if err != nil {
		return nil, err
	}
	return evalSelector(pl, sel), nil
}

// MustSelect is Select for fixtures and tests; it panics on parse errors.
func MustSelect(pl *core.Platform, src string) []*core.PU {
	out, err := Select(pl, src)
	if err != nil {
		panic(err)
	}
	return out
}

// evalSelector runs the parsed steps against the platform.
func evalSelector(pl *core.Platform, sel *Selector) []*core.PU {
	order := map[*core.PU]int{}
	i := 0
	pl.Walk(func(pu, _ *core.PU) bool {
		order[pu] = i
		i++
		return true
	})

	union := map[*core.PU]bool{}
	for _, path := range sel.Paths {
		// The virtual root is represented by nil; its children are the
		// Masters and its descendants are all PUs.
		cur := []*core.PU{nil}
		for _, step := range path {
			next := map[*core.PU]bool{}
			for _, node := range cur {
				var candidates []*core.PU
				if step.Descend {
					if node == nil {
						candidates = pl.AllPUs()
					} else {
						node.Walk(func(n, _ *core.PU) bool {
							if n != node {
								candidates = append(candidates, n)
							}
							return true
						})
					}
				} else {
					if node == nil {
						candidates = pl.Masters
					} else {
						candidates = node.Children
					}
				}
				for _, c := range candidates {
					if stepMatches(step, c) {
						next[c] = true
					}
				}
			}
			cur = cur[:0]
			for n := range next {
				cur = append(cur, n)
			}
		}
		for _, n := range cur {
			union[n] = true
		}
	}
	out := make([]*core.PU, 0, len(union))
	for n := range union {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return order[out[i]] < order[out[j]] })
	return out
}

func stepMatches(step Step, pu *core.PU) bool {
	if step.Class != "*" && step.Class != pu.Class.String() {
		return false
	}
	for _, pr := range step.Preds {
		if !pr.matches(pu) {
			return false
		}
	}
	return true
}
