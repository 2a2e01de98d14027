package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // counters are monotonic: negative deltas are ignored
	if c.Value() != 3.5 {
		t.Fatalf("value = %g", c.Value())
	}
}

func TestGauge(t *testing.T) {
	r := New()
	g := r.Gauge("g", "help")
	g.Set(10)
	g.Add(-2.5)
	g.Inc()
	g.Dec()
	if g.Value() != 7.5 {
		t.Fatalf("value = %g", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h", "help", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} { // 1 lands in le="1" (first bound >= v)
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 106.5 {
		t.Fatalf("count=%d sum=%g", h.Count(), h.Sum())
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`h_bucket{le="1"} 2`,
		`h_bucket{le="10"} 3`, // cumulative
		`h_bucket{le="+Inf"} 4`,
		"h_sum 106.5",
		"h_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestLocalHistogramFlush: observations buffered in a LocalHistogram are
// invisible until Flush, which leaves the histogram rendering exactly what
// Observe on it would have, runs of equal values included; a second Flush adds
// nothing.
func TestLocalHistogramFlush(t *testing.T) {
	vs := []float64{0.5, 1, 1, 5, 100, 100, 100, 10, 0.25, 0.25, 5}
	direct, buffered := New(), New()
	hd := direct.Histogram("h", "help", []float64{1, 10})
	hb := buffered.Histogram("h", "help", []float64{1, 10})
	l := hb.Local()
	for _, v := range vs {
		hd.Observe(v)
		l.Observe(v)
	}
	if hb.Count() != 0 {
		t.Fatalf("count before Flush = %d, want 0", hb.Count())
	}
	l.Flush()
	l.Flush()
	render := func(r *Registry) string {
		var b strings.Builder
		r.WritePrometheus(&b)
		return b.String()
	}
	if got, want := render(buffered), render(direct); got != want {
		t.Fatalf("flushed:\n%s\nobserved:\n%s", got, want)
	}
}

func TestVecChildrenAndRender(t *testing.T) {
	r := New()
	cv := r.CounterVec("tasks_total", "help", "unit")
	gv := r.GaugeVec("depth", "help", "unit")
	hv := r.HistogramVec("lat", "help", []float64{1}, "unit")
	cv.With("worker1").Add(2)
	cv.With("worker0").Inc()
	if cv.With("worker1") != cv.With("worker1") {
		t.Fatal("With must return the same child")
	}
	gv.With("worker0").Set(3)
	hv.With("worker0").Observe(0.5)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE tasks_total counter",
		`tasks_total{unit="worker0"} 1`,
		`tasks_total{unit="worker1"} 2`,
		`depth{unit="worker0"} 3`,
		`lat_bucket{unit="worker0",le="1"} 1`,
		`lat_sum{unit="worker0"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Children render sorted by label value regardless of creation order.
	if strings.Index(out, `unit="worker0"`) > strings.Index(out, `unit="worker1"`) {
		t.Fatalf("children unsorted:\n%s", out)
	}
}

func TestVecWrongArity(t *testing.T) {
	r := New()
	cv := r.CounterVec("c", "help", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity must panic")
		}
	}()
	cv.With("only-one")
}

func TestFuncMetrics(t *testing.T) {
	r := New()
	v := 41.0
	r.GaugeFunc("gf", "help", func() float64 { return v })
	r.CounterFunc("cf_total", "help", func() float64 { return v + 1 })
	v = 42
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, "gf 42") || !strings.Contains(out, "cf_total 43") {
		t.Fatalf("func metrics read stale values:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE cf_total counter") {
		t.Fatalf("CounterFunc must render as counter:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := New()
	r.Counter("dup", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r.Gauge("dup", "help")
}

func TestRenderOrderIsRegistrationOrder(t *testing.T) {
	r := New()
	r.Counter("z_first", "help")
	r.Counter("a_second", "help")
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if strings.Index(out, "z_first") > strings.Index(out, "a_second") {
		t.Fatalf("families reordered:\n%s", out)
	}
}

// The update path is what runs inside the work-stealing loop; exercise it
// from many goroutines so -race vouches for the lock-free claim.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "help")
	cv := r.CounterVec("cv_total", "help", "unit")
	h := r.Histogram("h", "help", []float64{1, 10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			unit := string(rune('a' + w%4))
			for i := 0; i < 1000; i++ {
				c.Inc()
				cv.With(unit).Inc()
				h.Observe(float64(i % 20))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %g", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	total := 0.0
	cv.Each(func(_ []string, child *Counter) { total += child.Value() })
	if total != 8000 {
		t.Fatalf("vec total = %g", total)
	}
}
