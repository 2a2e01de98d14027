// Package query implements the query API over PDL platform descriptions
// referred to in the paper's case study: a compact path-selector language
// (reminiscent of XPath, specialised to the machine model), evaluated over a
// document-ordered PU set (Q). The flat key=value DSL (dsl.go) compiles onto
// the same selectors, so there is one evaluator.
//
// Selector examples:
//
//	//Worker                          every Worker in the platform
//	//Worker[ARCHITECTURE=gpu]        every gpu Worker
//	/Master/Worker                    Workers directly controlled by a Master
//	//Hybrid/Worker[ARCHITECTURE=spe] SPEs under Hybrids
//	//*[group=gpuset]                 every PU in logic group "gpuset"
//	//Worker[MAX_COMPUTE_UNITS>=15]   numeric property comparison
//	//*[@id=gpu0]                     attribute match (@id, @name, @class, @quantity)
//	//Worker[GLOBAL_MEM_SIZE]         property-existence test
//
// The selector grammar:
//
//	selector := path ("," path)*
//	path     := step+
//	step     := ("/" | "//") class pred*
//	class    := "Master" | "Hybrid" | "Worker" | "*"
//	pred     := "[" key (op value)? "]"
//	key      := "@"ident | "group" | ident
//	op       := "=" | "!=" | "<" | "<=" | ">" | ">="
//
// "/" selects direct children of the current node set (the virtual root's
// children are the platform's Masters); "//" selects all descendants. A
// comma unions independent paths: "//Master, //Worker[ARCHITECTURE=gpu]"
// matches every Master plus the gpu Workers, deduplicated in document
// order.
//
// A comparison is numeric when both sides parse as numbers and compares
// strings otherwise, so [MAX_COMPUTE_UNITS=30.0] matches a unit whose value
// is "30". A comparison on a property the unit lacks never holds, != included.
package query

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Op is a predicate comparison operator.
type Op int

// Comparison operators in predicate expressions.
const (
	OpExists Op = iota // bare key: property present
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// opTokens spells each operator, in Op order.
var opTokens = [...]string{OpExists: "", OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}

func (o Op) String() string {
	if o < 0 || int(o) >= len(opTokens) {
		return "?"
	}
	return opTokens[o]
}

// Pred is one [key op value] predicate.
type Pred struct {
	Key   string // property name, "group", or "@attr"
	Op    Op
	Value string
	num   float64 // Value as a number, when isNum
	isNum bool
}

// newPred builds a predicate, parsing its value as a number once.
func newPred(key string, op Op, value string) Pred {
	n, ok := parseNum(value)
	return Pred{Key: key, Op: op, Value: value, num: n, isNum: ok}
}

// parseNum is strconv.ParseFloat without the error it allocates for a value
// whose first byte cannot begin a number (most property values: "gpu").
func parseNum(s string) (float64, bool) {
	if s == "" || !strings.ContainsRune("0123456789+-.iInN", rune(s[0])) {
		return 0, false
	}
	n, err := strconv.ParseFloat(s, 64)
	return n, err == nil
}

// Step is one /Class[pred]* component of a selector.
type Step struct {
	Descend bool // true for "//", false for "/"
	Class   string
	Preds   []Pred
}

// Selector is a parsed selector: one or more alternative paths whose
// matches are unioned.
type Selector struct {
	Paths [][]Step
	src   string
}

// String returns the original selector source.
func (s *Selector) String() string { return s.src }

// ParseSelector parses a selector expression.
func ParseSelector(src string) (*Selector, error) {
	p := &selParser{src: src}
	sel := &Selector{src: src}
	for {
		steps, err := p.path()
		if err != nil {
			return nil, fmt.Errorf("query: parse %q: %w", src, err)
		}
		sel.Paths = append(sel.Paths, steps)
		if p.pos == len(src) {
			return sel, nil
		}
		p.pos++ // the ',' between two paths
	}
}

type selParser struct {
	src string
	pos int
}

// path parses the steps up to the end of the source or the next ',' outside
// a predicate.
func (p *selParser) path() ([]Step, error) {
	var steps []Step
	p.skipSpace()
	for p.pos < len(p.src) && p.src[p.pos] != ',' {
		step, err := p.step()
		if err != nil {
			return nil, err
		}
		steps = append(steps, step)
		p.skipSpace()
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("position %d: empty path", p.pos)
	}
	return steps, nil
}

func (p *selParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *selParser) step() (Step, error) {
	var st Step
	if !strings.HasPrefix(p.src[p.pos:], "/") {
		return st, fmt.Errorf("position %d: step must start with / or //", p.pos)
	}
	p.pos++
	if p.pos < len(p.src) && p.src[p.pos] == '/' {
		st.Descend = true
		p.pos++
	}
	start := p.pos
	for p.pos < len(p.src) && (isIdentChar(p.src[p.pos]) || p.src[p.pos] == '*') {
		p.pos++
	}
	st.Class = p.src[start:p.pos]
	switch st.Class {
	case "Master", "Hybrid", "Worker", "*":
	case "":
		return st, fmt.Errorf("position %d: missing class name (Master/Hybrid/Worker/*)", p.pos)
	default:
		return st, fmt.Errorf("unknown class %q", st.Class)
	}
	for p.pos < len(p.src) && p.src[p.pos] == '[' {
		pred, err := p.pred()
		if err != nil {
			return st, err
		}
		st.Preds = append(st.Preds, pred)
	}
	return st, nil
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.' || c == '-'
}

func (p *selParser) pred() (Pred, error) {
	p.pos++ // consume '['
	start := p.pos
	if p.pos < len(p.src) && p.src[p.pos] == '@' {
		p.pos++
	}
	for p.pos < len(p.src) && isIdentChar(p.src[p.pos]) {
		p.pos++
	}
	key := p.src[start:p.pos]
	if key == "" || key == "@" {
		return Pred{}, fmt.Errorf("position %d: empty predicate key", start)
	}
	if p.pos < len(p.src) && p.src[p.pos] == ']' {
		p.pos++
		return newPred(key, OpExists, ""), nil
	}
	op := OpExists
	for _, o := range []Op{OpNe, OpLe, OpGe, OpEq, OpLt, OpGt} { // two-byte tokens first
		if strings.HasPrefix(p.src[p.pos:], o.String()) {
			op = o
			p.pos += len(o.String())
			break
		}
	}
	if op == OpExists {
		return Pred{}, fmt.Errorf("position %d: expected operator or ]", p.pos)
	}
	// value: quoted or bare until ']'
	var value string
	if p.pos < len(p.src) && (p.src[p.pos] == '\'' || p.src[p.pos] == '"') {
		quote := p.src[p.pos]
		p.pos++
		vstart := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != quote {
			p.pos++
		}
		if p.pos >= len(p.src) {
			return Pred{}, fmt.Errorf("unterminated quoted value")
		}
		value = p.src[vstart:p.pos]
		p.pos++
	} else {
		vstart := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != ']' {
			p.pos++
		}
		value = strings.TrimSpace(p.src[vstart:p.pos])
	}
	if p.pos >= len(p.src) || p.src[p.pos] != ']' {
		return Pred{}, fmt.Errorf("missing ] in predicate")
	}
	p.pos++
	return newPred(key, op, value), nil
}

// matches reports whether the step's class and every predicate hold for pu.
func (st *Step) matches(pu *core.PU) bool {
	if st.Class != "*" && st.Class != pu.Class.String() {
		return false
	}
	for i := range st.Preds {
		if !st.Preds[i].matches(pu) {
			return false
		}
	}
	return true
}

// matches reports whether the predicate holds for the PU.
func (pr *Pred) matches(pu *core.PU) bool {
	var have string
	switch pr.Key {
	case "@id":
		have = pu.ID
	case "@name":
		have = pu.Name
	case "@class":
		have = pu.Class.String()
	case "@quantity":
		have = strconv.Itoa(pu.EffectiveQuantity())
	case "group":
		// group supports = and != only; ordered comparison is meaningless.
		switch pr.Op {
		case OpExists:
			return len(pu.Groups) > 0
		case OpEq:
			return pu.InGroup(pr.Value)
		case OpNe:
			return !pu.InGroup(pr.Value)
		}
		return false
	default:
		if strings.HasPrefix(pr.Key, "@") {
			return false
		}
		p, ok := pu.Descriptor.Get(pr.Key)
		if !ok {
			return false
		}
		have = p.Value
	}
	if pr.Op == OpExists {
		return true
	}
	if pr.isNum {
		if h, ok := parseNum(have); ok {
			return compare(h, pr.Op, pr.num)
		}
	}
	return compare(have, pr.Op, pr.Value)
}

// compare applies op to two numbers or two strings.
func compare[T float64 | string](have T, op Op, want T) bool {
	switch op {
	case OpEq:
		return have == want
	case OpNe:
		return have != want
	case OpLt:
		return have < want
	case OpLe:
		return have <= want
	case OpGt:
		return have > want
	case OpGe:
		return have >= want
	}
	return false
}
