// Query-string DSL shared by cmd/pdlquery and the pdlserved HTTP API: a flat
// key=value filter vocabulary. Both the CLI (positional key=value args) and
// the server (URL query parameters) feed the same parser, so a filter
// expression means the same thing everywhere.
//
// Vocabulary:
//
//	kind=worker|master|hybrid|*     PU class (case-insensitive)
//	arch=gpu                        ARCHITECTURE property equality
//	group=devset                    logic-group membership
//	id=dev0                         exact PU id
//	prop=NAME                       property existence
//	prop=NAME:VALUE                 property equality (repeatable)
//	select=//Worker[...]            full selector expression, intersected
//	limit=N                         keep at most N results (document order)
//
// ParseFilters compiles the flat keys into one selector. Its paths are those
// of select=, or //* without one. kind= becomes the class of each path's
// last step, and a path whose last step names another class is dropped.
// arch, group, id and prop append [ARCHITECTURE=…], [group=…], [@id=…],
// [NAME] and [NAME=VALUE] to that last step. So every = in the DSL is the
// selector's =: numeric when both sides parse as numbers, and a unit that
// lacks NAME never matches prop=NAME:VALUE, not even with an empty VALUE.
//
// Unknown keys, bad values and selector parse errors are all collected into
// one *FilterError so a caller sees every problem in a single pass.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// PropFilter is one prop=NAME[:VALUE] filter.
type PropFilter struct {
	Name     string
	Value    string
	HasValue bool
}

// Filters is a parsed DSL expression. The zero value matches every PU.
type Filters struct {
	Kind   string // canonical class name ("Master", "Hybrid", "Worker") or ""
	Arch   string
	Group  string
	ID     string
	Props  []PropFilter
	Select string // selector expression, intersected with the flat filters
	Limit  int    // 0 means unlimited

	sel *Selector // what ParseFilters compiled the fields into
}

// FilterError aggregates every problem found while parsing a DSL expression,
// so tools report all invalid filter arguments in one pass instead of
// bailing on the first.
type FilterError struct {
	Problems []string
}

func (e *FilterError) Error() string {
	return fmt.Sprintf("query: %d invalid filter(s): %s", len(e.Problems), strings.Join(e.Problems, "; "))
}

// AsFilterError unwraps a *FilterError, if err is one.
func AsFilterError(err error) (*FilterError, bool) {
	fe, ok := err.(*FilterError)
	return fe, ok
}

// filterKeys is the closed DSL vocabulary, for error messages.
var filterKeys = []string{"arch", "group", "id", "kind", "limit", "prop", "select"}

// ParseFilters parses a DSL expression given as key → values (the shape of
// url.Values, so HTTP handlers pass r.URL.Query() directly). All problems
// are collected; on any problem the returned *Filters is nil and err is a
// *FilterError listing every one.
func ParseFilters(pairs map[string][]string) (*Filters, error) {
	f := &Filters{}
	var base *Selector
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	// Deterministic error order regardless of map iteration.
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	single := func(key string, vals []string) (string, bool) {
		if len(vals) > 1 {
			bad("%s: given %d times, want once", key, len(vals))
			return "", false
		}
		v := strings.TrimSpace(vals[0])
		if v == "" {
			bad("%s: empty value", key)
			return "", false
		}
		return v, true
	}

	for _, key := range keys {
		vals := pairs[key]
		switch key {
		case "kind":
			v, ok := single(key, vals)
			if !ok {
				continue
			}
			if v == "*" {
				continue // explicit wildcard: no class filter
			}
			canon := strings.ToUpper(v[:1]) + strings.ToLower(v[1:])
			switch canon {
			case "Master", "Hybrid", "Worker":
				f.Kind = canon
			default:
				bad("%s: unknown class %q (want master, hybrid, worker or *)", key, v)
			}
		case "arch":
			if v, ok := single(key, vals); ok {
				f.Arch = v
			}
		case "group":
			if v, ok := single(key, vals); ok {
				f.Group = v
			}
		case "id":
			if v, ok := single(key, vals); ok {
				f.ID = v
			}
		case "prop":
			for _, v := range vals {
				v = strings.TrimSpace(v)
				if v == "" {
					bad("prop: empty value")
					continue
				}
				name, value, hasValue := strings.Cut(v, ":")
				if name == "" {
					bad("prop: %q has empty property name", v)
					continue
				}
				f.Props = append(f.Props, PropFilter{Name: name, Value: value, HasValue: hasValue})
			}
		case "select":
			v, ok := single(key, vals)
			if !ok {
				continue
			}
			sel, err := ParseSelector(v)
			if err != nil {
				bad("select: %v", err)
				continue
			}
			f.Select, base = v, sel
		case "limit":
			v, ok := single(key, vals)
			if !ok {
				continue
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				bad("limit: %q is not a non-negative integer", v)
				continue
			}
			f.Limit = n
		default:
			bad("unknown filter key %q (known: %s)", key, strings.Join(filterKeys, ", "))
		}
	}
	if len(problems) > 0 {
		return nil, &FilterError{Problems: problems}
	}
	f.sel = f.compile(base)
	return f, nil
}

// compile turns the flat fields into predicates on the last step of every
// path of base (the parsed Select, or nil for //*), by the rule the vocabulary
// comment states. It takes base over.
func (f *Filters) compile(base *Selector) *Selector {
	if base == nil { // //*, in one allocation: every query request compiles
		c := new(struct {
			sel   Selector
			paths [1][]Step
			steps [1]Step
		})
		c.steps[0] = Step{Descend: true, Class: "*"}
		c.paths[0], c.sel.Paths = c.steps[:], c.paths[:]
		base = &c.sel
	}
	var preds []Pred
	if f.Arch != "" || f.Group != "" || f.ID != "" || len(f.Props) > 0 {
		preds = make([]Pred, 0, 3+len(f.Props))
	}
	if f.Arch != "" {
		preds = append(preds, newPred(core.PropArchitecture, OpEq, f.Arch))
	}
	if f.Group != "" {
		preds = append(preds, newPred("group", OpEq, f.Group))
	}
	if f.ID != "" {
		preds = append(preds, newPred("@id", OpEq, f.ID))
	}
	for _, p := range f.Props {
		op := OpExists
		if p.HasValue {
			op = OpEq
		}
		preds = append(preds, newPred(p.Name, op, p.Value))
	}
	paths := base.Paths[:0]
	for _, path := range base.Paths {
		last := &path[len(path)-1]
		if f.Kind != "" && last.Class != "*" && last.Class != f.Kind {
			continue
		}
		if f.Kind != "" {
			last.Class = f.Kind
		}
		if len(last.Preds) == 0 {
			last.Preds = preds[:len(preds):len(preds)] // shared read-only by every path
		} else {
			last.Preds = append(last.Preds, preds...)
		}
		paths = append(paths, path)
	}
	base.Paths = paths
	return base
}

// ParseFilterArgs parses positional "key=value" arguments (the CLI shape of
// the DSL). Arguments without '=' are reported alongside every other
// problem, again in one pass.
func ParseFilterArgs(args []string) (*Filters, error) {
	pairs := map[string][]string{}
	var problems []string
	for _, a := range args {
		key, value, ok := strings.Cut(a, "=")
		if !ok || strings.TrimSpace(key) == "" {
			problems = append(problems, fmt.Sprintf("argument %q is not key=value", a))
			continue
		}
		key = strings.TrimSpace(key)
		pairs[key] = append(pairs[key], value)
	}
	f, err := ParseFilters(pairs)
	if err != nil {
		fe := err.(*FilterError)
		fe.Problems = append(problems, fe.Problems...)
		return nil, fe
	}
	if len(problems) > 0 {
		return nil, &FilterError{Problems: problems}
	}
	return f, nil
}

// Apply returns the members of q that the filters' selector matches, cut to
// the first Limit. The selector is the one ParseFilters compiled; filters
// built another way are compiled on each call.
func (f *Filters) Apply(q *Q) (*Q, error) {
	sel := f.sel
	if sel == nil {
		var base *Selector
		if f.Kind != "" {
			if _, err := core.ParseClass(f.Kind); err != nil {
				return nil, err
			}
		}
		if f.Select != "" {
			var err error
			if base, err = ParseSelector(f.Select); err != nil {
				return nil, err
			}
		}
		sel = f.compile(base)
	}
	out := q.eval(sel)
	if f.Limit > 0 && len(out.pos) > f.Limit {
		out.pos = out.pos[:f.Limit]
	}
	return out, nil
}

// CacheKey returns a canonical rendering of the filters: equal filter sets
// produce equal keys regardless of input ordering, so it is safe to key a
// query-result cache on it.
func (f *Filters) CacheKey() string {
	var b strings.Builder
	add := func(k, v string) {
		if v != "" {
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(v)
			b.WriteByte('&')
		}
	}
	add("kind", f.Kind)
	add("arch", f.Arch)
	add("group", f.Group)
	add("id", f.ID)
	props := make([]string, 0, len(f.Props))
	for _, p := range f.Props {
		s := p.Name
		if p.HasValue {
			s += ":" + p.Value
		}
		props = append(props, s)
	}
	sort.Strings(props)
	for _, p := range props {
		add("prop", p)
	}
	add("select", f.Select)
	if f.Limit > 0 {
		add("limit", strconv.Itoa(f.Limit))
	}
	return strings.TrimSuffix(b.String(), "&")
}

// String renders the filters in CLI argument form.
func (f *Filters) String() string {
	return strings.ReplaceAll(f.CacheKey(), "&", " ")
}
