// Package metrics is a dependency-free Prometheus-style instrumentation
// layer: counters, gauges and histograms, with optional label vectors,
// registered in a Registry that renders the text exposition format.
//
// It was extracted from internal/server so one metrics substrate serves the
// whole system: the HTTP registry service keeps its pdlserved_* families,
// and the task runtime instruments its workers (queue depth, steals,
// retries, blacklist state, task latency per PDL unit id) into the shared
// Default registry — a single /metrics scrape shows the service and the
// runtime side by side, the "performance relevant observations" Section II
// of the paper wants tied back to platform descriptions.
//
// Instruments are lock-free on the update path (atomic adds; label lookup
// takes a short read lock), so they are safe to use inside the runtime's
// work-stealing hot loop.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated via CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) set(v float64)  { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds v (must be >= 0; negative deltas are ignored).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.v.add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.value() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.set(v) }

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) { g.v.add(v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.value() }

// Histogram counts observations into cumulative buckets.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []atomic.Uint64
	sum    atomicFloat
	n      atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1), // last slot = +Inf overflow
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.add(v)
	h.n.Add(1)
}

// Local returns an empty buffer of observations for h. The buffer belongs to
// one goroutine: Observe touches no shared word, and Flush merges what it
// holds into h with one atomic add per non-empty bucket. A scrape sees none of
// it before the Flush.
func (h *Histogram) Local() *LocalHistogram {
	return &LocalHistogram{h: h, counts: make([]uint64, len(h.counts)), last: math.NaN()}
}

// LocalHistogram is a single-goroutine buffer in front of a Histogram.
type LocalHistogram struct {
	h      *Histogram
	counts []uint64
	sum    float64
	n      uint64
	// last is the value observed last and bucket its bucket: a run of equal
	// values (a simulated unit's tiles all take one kernel time) is bucketed
	// once. NaN matches nothing.
	last   float64
	bucket int
}

// Observe records one observation in the buffer, bucketed as
// Histogram.Observe buckets it.
func (l *LocalHistogram) Observe(v float64) {
	if v != l.last {
		l.last, l.bucket = v, sort.SearchFloat64s(l.h.bounds, v)
	}
	l.counts[l.bucket]++
	l.sum += v
	l.n++
}

// Flush adds the buffered observations to the histogram and empties the
// buffer.
func (l *LocalHistogram) Flush() {
	if l.n == 0 {
		return
	}
	for i, c := range l.counts {
		if c > 0 {
			l.h.counts[i].Add(c)
		}
	}
	l.h.sum.add(l.sum)
	l.h.n.Add(l.n)
	clear(l.counts)
	l.sum, l.n = 0, 0
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.value() }

// vec is the shared label-vector machinery: children keyed by joined label
// values, created on first use.
type vec[T any] struct {
	labels []string
	mu     sync.RWMutex
	kids   map[string]*T
	make   func() *T
}

func (v *vec[T]) with(values ...string) *T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %d label values for labels %v", len(values), v.labels))
	}
	key := strings.Join(values, "\x00")
	v.mu.RLock()
	kid, ok := v.kids[key]
	v.mu.RUnlock()
	if ok {
		return kid
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if kid, ok = v.kids[key]; ok {
		return kid
	}
	kid = v.make()
	v.kids[key] = kid
	return kid
}

// del removes the child for the given label values, if any.
func (v *vec[T]) del(values ...string) {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %d label values for labels %v", len(values), v.labels))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	delete(v.kids, key)
	v.mu.Unlock()
}

// each visits children sorted by label values (deterministic render order).
func (v *vec[T]) each(f func(values []string, kid *T)) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	kids := make(map[string]*T, len(v.kids))
	for k, kid := range v.kids {
		kids[k] = kid
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		var values []string
		if k != "" || len(v.labels) > 0 {
			values = strings.Split(k, "\x00")
		}
		f(values, kids[k])
	}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ vec[Counter] }

// With returns the counter for the given label values, creating it on first
// use.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values...) }

// Each visits every child with its label values, sorted.
func (v *CounterVec) Each(f func(values []string, c *Counter)) { v.each(f) }

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ vec[Gauge] }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.with(values...) }

// Each visits every child with its label values, sorted.
func (v *GaugeVec) Each(f func(values []string, g *Gauge)) { v.each(f) }

// Delete drops the child series for the given label values, so scrapes stop
// reporting it entirely (a dead cluster node's gauges must disappear, not
// linger at their last value). Gauge-only: deleting a counter child would
// break monotonicity if it were ever recreated.
func (v *GaugeVec) Delete(values ...string) { v.del(values...) }

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ vec[Histogram] }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values...) }

// Each visits every child with its label values, sorted.
func (v *HistogramVec) Each(f func(values []string, h *Histogram)) { v.each(f) }

// family is one registered metric family.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	render func(w io.Writer)
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format, in registration order.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]bool
}

// New returns an empty registry.
func New() *Registry { return &Registry{byName: map[string]bool{}} }

// Default is the process-wide registry. The task runtime registers its
// families here; pdlserved renders it alongside its own registry so one
// scrape covers both layers.
var Default = New()

func (r *Registry) register(name, help, typ string, render func(io.Writer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.byName[name] = true
	r.families = append(r.families, &family{name: name, help: help, typ: typ, render: render})
}

// labelPairs renders {k1="v1",...} from parallel name/value slices.
func labelPairs(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		fmt.Fprintf(&b, "%s=%q", n, v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func(w io.Writer) {
		fmt.Fprintf(w, "%s %g\n", name, c.Value())
	})
	return c
}

// CounterVec registers and returns a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{vec[Counter]{labels: labels, kids: map[string]*Counter{}, make: func() *Counter { return &Counter{} }}}
	r.register(name, help, "counter", func(w io.Writer) {
		v.Each(func(values []string, c *Counter) {
			fmt.Fprintf(w, "%s%s %g\n", name, labelPairs(labels, values), c.Value())
		})
	})
	return v
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", func(w io.Writer) {
		fmt.Fprintf(w, "%s %g\n", name, g.Value())
	})
	return g
}

// GaugeVec registers and returns a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{vec[Gauge]{labels: labels, kids: map[string]*Gauge{}, make: func() *Gauge { return &Gauge{} }}}
	r.register(name, help, "gauge", func(w io.Writer) {
		v.Each(func(values []string, g *Gauge) {
			fmt.Fprintf(w, "%s%s %g\n", name, labelPairs(labels, values), g.Value())
		})
	})
	return v
}

// GaugeFunc registers a gauge whose value is computed at render time — for
// state owned elsewhere (store versions, cache sizes) that would otherwise
// need write-through plumbing.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func(w io.Writer) {
		fmt.Fprintf(w, "%s %g\n", name, fn())
	})
}

// CounterFunc registers a counter whose value is computed at render time
// (the underlying source must be monotonic, e.g. cache hit totals).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", func(w io.Writer) {
		fmt.Fprintf(w, "%s %g\n", name, fn())
	})
}

// renderHistogram writes one histogram's cumulative buckets, sum and count,
// with optional extra label pairs spliced before the le label.
func renderHistogram(w io.Writer, name string, labels, values []string, bounds []float64, h *Histogram) {
	cum := uint64(0)
	prefix := ""
	if len(labels) > 0 {
		p := labelPairs(labels, values)
		prefix = p[1:len(p)-1] + ","
	}
	for i, bound := range bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, prefix, bound, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, h.Count())
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labelPairs(labels, values), h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelPairs(labels, values), h.Count())
}

// Histogram registers and returns a new histogram with the given ascending
// upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, "histogram", func(w io.Writer) {
		renderHistogram(w, name, nil, nil, bounds, h)
	})
	return h
}

// HistogramVec registers and returns a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{vec[Histogram]{labels: labels, kids: map[string]*Histogram{}, make: func() *Histogram { return newHistogram(bounds) }}}
	r.register(name, help, "histogram", func(w io.Writer) {
		v.Each(func(values []string, h *Histogram) {
			renderHistogram(w, name, labels, values, bounds, h)
		})
	})
	return v
}

// WritePrometheus renders every family in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range families {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		f.render(w)
	}
}
