package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the programs under test are not instrumented). Spans of one rep or
// request share Op; Parent is the index of the enclosing span, -1 at the top.
type span struct {
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start"` // seconds since the recorder was made
	End    float64 `json:"end"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the end-to-end pass runs with tracing off.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *spanRecorder) begin(op int, name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Op: op, Name: name, Parent: parent, Start: now, End: now})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(idx int) {
	if r == nil || idx < 0 {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[idx].End = now
	r.mu.Unlock()
}

// rename names a span after the fact, for calls whose outcome (a cache hit
// or miss) decides which row they belong to.
func (r *spanRecorder) rename(idx int, name string) {
	if r == nil || idx < 0 {
		return
	}
	r.mu.Lock()
	r.spans[idx].Name = name
	r.mu.Unlock()
}

// timed records fn as one span.
func (r *spanRecorder) timed(op int, name string, parent int, fn func()) {
	idx := r.begin(op, name, parent)
	fn()
	r.end(idx)
}

// layerTime holds the spans of one name: each one's seconds, and its self
// seconds (its own minus its direct children's).
type layerTime struct{ each, selfs []float64 }

// byName groups spans by name. Children of one span are sequential in this
// benchmark, so the time they cover is their plain sum.
func (r *spanRecorder) byName() map[string]layerTime {
	out := map[string]layerTime{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		lt := out[s.Name]
		d := s.End - s.Start
		lt.each = append(lt.each, d)
		lt.selfs = append(lt.selfs, d-child[i])
		out[s.Name] = lt
	}
	return out
}

// medianMicros is the median duration (or self time) of one span, in µs;
// medians, because one slow fsync would own a mean.
func (lt layerTime) medianMicros(self bool) float64 {
	if self {
		return median(lt.selfs) * 1e6
	}
	return median(lt.each) * 1e6
}

// writeJSONL writes one span per line; line i is span index i, which is
// what Parent refers to.
func (r *spanRecorder) writeJSONL(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
