package query

import "repro/internal/core"

// Q is a set of PUs of one platform, kept in document order: the order
// Platform.Walk visits them. New walks the platform once; Select derives new
// sets from that walk and never changes a Q, so concurrent readers share one
// root (the registry keeps one per published entry).
type Q struct {
	d   *doc
	pos []int32 // document positions of the members, ascending
}

// doc is one walk of a platform. The subtree of position i is the position
// range [i, end[i]), and parent[i] is its controller's position, -1 for a
// Master.
type doc struct {
	pus    []*core.PU
	parent []int32
	end    []int32
}

// New returns the set of every PU of the platform. It is the only place the
// package walks a platform.
func New(pl *core.Platform) *Q {
	q := &Q{d: &doc{}}
	d := q.d
	var open []int32 // ancestors of the position being visited, innermost last
	pl.Walk(func(pu, ctl *core.PU) bool {
		i := int32(len(d.pus))
		for len(open) > 0 && d.pus[open[len(open)-1]] != ctl {
			d.end[open[len(open)-1]] = i
			open = open[:len(open)-1]
		}
		parent := int32(-1)
		if len(open) > 0 {
			parent = open[len(open)-1]
		}
		d.pus = append(d.pus, pu)
		d.parent = append(d.parent, parent)
		d.end = append(d.end, 0)
		q.pos = append(q.pos, i)
		open = append(open, i)
		return true
	})
	for _, o := range open {
		d.end[o] = int32(len(d.pus))
	}
	return q
}

// Select returns the members of q that the selector expression matches.
func (q *Q) Select(src string) (*Q, error) {
	sel, err := ParseSelector(src)
	if err != nil {
		return nil, err
	}
	return q.eval(sel), nil
}

// eval returns the members of q that some path of the selector reaches. A
// step runs over the whole document once: next marks the positions it
// reaches from those cur marks, then the two masks swap.
func (q *Q) eval(sel *Selector) *Q {
	d := q.d
	n := len(d.pus)
	masks := make([]bool, 3*n)
	hit, cur, next := masks[:n], masks[n:2*n], masks[2*n:]
	for _, path := range sel.Paths {
		for k := range path {
			st := &path[k]
			reach := int32(0) // positions below reach descend from a marked one
			for j, pu := range d.pus {
				var in bool
				switch p := d.parent[j]; {
				case k == 0 && st.Descend:
					in = true
				case k == 0:
					in = p < 0
				case st.Descend:
					in = int32(j) < reach
				default:
					in = p >= 0 && cur[p]
				}
				if k > 0 && cur[j] && d.end[j] > reach {
					reach = d.end[j]
				}
				next[j] = in && st.matches(pu)
			}
			cur, next = next, cur
		}
		for j, m := range cur {
			hit[j] = hit[j] || m
		}
	}
	out := &Q{d: d}
	for _, p := range q.pos {
		if hit[p] {
			out.pos = append(out.pos, p)
		}
	}
	return out
}

// All returns the members in document order.
func (q *Q) All() []*core.PU {
	out := make([]*core.PU, len(q.pos))
	for i, p := range q.pos {
		out[i] = q.d.pus[p]
	}
	return out
}

// Count returns the number of members.
func (q *Q) Count() int { return len(q.pos) }

// IDs returns the ids of the members in document order.
func (q *Q) IDs() []string {
	ids := make([]string, len(q.pos))
	for i, p := range q.pos {
		ids[i] = q.d.pus[p].ID
	}
	return ids
}

// Select evaluates a selector expression against a platform and returns the
// matched PUs in document order.
func Select(pl *core.Platform, src string) ([]*core.PU, error) {
	q, err := New(pl).Select(src)
	if err != nil {
		return nil, err
	}
	return q.All(), nil
}

// MustSelect is Select for fixtures and tests; it panics on parse errors.
func MustSelect(pl *core.Platform, src string) []*core.PU {
	out, err := Select(pl, src)
	if err != nil {
		panic(err)
	}
	return out
}
