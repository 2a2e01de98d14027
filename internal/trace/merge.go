package trace

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// Meta keys stamped by cluster processes so per-node traces can be merged
// into one cluster-wide timeline. MetaNode names the node that produced the
// trace; MetaEpochMicros is the node's trace time origin as Unix microseconds
// (the wall-clock instant that corresponds to trace time 0), letting Merge
// align the independent time bases of separate processes.
const (
	MetaNode        = "node"
	MetaEpochMicros = "epoch_us"
)

// Merge combines per-node traces into one cluster-wide trace.
//
// Each input's events are stamped with the node name taken from its
// MetaNode metadata (events already carrying a Node keep it — the master's
// trace records dispatch spans against the target node). When every input
// carries MetaEpochMicros, event times are shifted onto a common time base
// anchored at the earliest epoch; otherwise the inputs' own time bases are
// kept as-is (useful for synthetic traces in tests).
//
// Metadata merges with a "node/" prefix per input (e.g. "w1/epoch_us"),
// keeping node-specific keys apart; unprefixed keys from the first input
// win for everything else. The result's Dropped is the sum of the inputs':
// a span lost on any node is lost from the cluster timeline. Events stay in
// input order — Events and the exporters impose the one export order.
func Merge(inputs ...*Trace) (*Trace, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("trace: merge of zero traces")
	}

	type part struct {
		tr    *Trace
		node  string
		epoch int64
	}
	parts := make([]part, 0, len(inputs))
	haveEpochs := true
	minEpoch := int64(math.MaxInt64)
	for i, tr := range inputs {
		if tr == nil {
			return nil, fmt.Errorf("trace: merge input %d is nil", i)
		}
		meta := tr.Meta()
		p := part{tr: tr, node: cmp.Or(meta[MetaNode], fmt.Sprintf("n%d", i))}
		if s := meta[MetaEpochMicros]; s != "" {
			us, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: merge input %d (%s): bad %s %q: %v", i, p.node, MetaEpochMicros, s, err)
			}
			p.epoch = us
			minEpoch = min(minEpoch, us)
		} else {
			// An input without an epoch disables time alignment entirely:
			// shifting only some inputs would skew their relative order.
			haveEpochs = false
		}
		parts = append(parts, p)
	}

	out := New()
	for _, p := range parts {
		shift := 0.0
		if haveEpochs {
			shift = float64(p.epoch-minEpoch) / 1e6
		}
		for _, e := range p.tr.snapshot() {
			if e.Node == "" {
				e.Node = p.node
			}
			e.Start += shift
			e.End += shift
			out.events = append(out.events, e)
		}
		for k, v := range p.tr.Meta() {
			out.SetMeta(p.node+"/"+k, v)
		}
		out.addDroppedLocked(p.tr.Dropped())
	}
	// First input's unprefixed metadata wins for trace-level keys.
	for k, v := range parts[0].tr.Meta() {
		if k != MetaNode && k != MetaEpochMicros {
			out.SetMeta(k, v)
		}
	}
	return out, nil
}
