package main

import (
	"sync"
	"time"
)

// The host-speed reference. The hosts this benchmark runs on are shared
// virtual machines whose speed moves by a factor of two over minutes (the
// same chol-smp binary read 95 ms and 230 ms half an hour apart), which no
// estimator inside a 12-second run can remove. So every run also times a
// fixed routine of the benchmark's own — no code of the programs under test —
// between its reps, and multiplies each rep's time by refNominal ÷ the
// routine's time beside that rep (rates are divided by it): milliseconds as
// they would read on a host where the routine takes refNominal. A change to
// the programs cannot move the routine, so a ratio of two runs' values is
// the ratio of the programs' times at equal host speed. The slow-downs come
// and go within seconds, which is why reps are scaled one by one: scaled by
// the run's median sample, a run's median rose 30 % under a neighbour that
// was busy 60 % of the time, and 1 % scaled rep by rep.
const (
	refArrayBytes = 8 << 20
	refFMAIters   = 5 << 17 // about as long as the two timed walks
	refNominal    = 2e-3    // seconds: the routine on the development host when it is quiet
	refBurst      = 8       // samples taken in a row around the traced pass
	// refPeriod is the sampling period inside reps and load phases: the
	// routine then keeps one thread busy 4 % of the time.
	refPeriod = 50 * time.Millisecond
)

// refArray has no pointers, so the collector never scans it.
var refArray = make([]int64, refArrayBytes/8)

// refWalk is one dependent read-modify-write pass over one word of every
// cache line of refArray.
func refWalk() {
	var s int64
	for i := 0; i < len(refArray); i += 8 {
		s += refArray[i]
		refArray[i] = s
	}
	sink += float64(s)
}

// refRoutine is the reference work, about 2 ms on one thread, half and
// half: two passes over an 8 MiB array (cache and memory speed; larger than
// the private caches, so it runs from the shared one, where neighbours are
// felt), then eight scalar FMA chains (core speed). An untimed pass comes
// first, so the timed ones find the array where that pass left it and not
// where the workload's last rep did: the routine must not read a change to
// the programs' memory footprint as a change of host speed.
func refRoutine() float64 {
	refWalk()
	t0 := time.Now()
	refWalk()
	refWalk()
	refCompute(refFMAIters)
	return time.Since(t0).Seconds()
}

// refSample is one timed call of the routine.
type refSample struct {
	at      time.Time
	seconds float64
}

// hostRef collects the reference samples of one pass. Samples may come from
// the measuring goroutine and from the one during starts.
type hostRef struct {
	mu      sync.Mutex
	samples []refSample
}

// refMu lets one goroutine at a time run the routine: it works on one array,
// and two calls side by side would time each other.
var refMu sync.Mutex

// sample times the routine once and returns when it began.
func (h *hostRef) sample() time.Time {
	refMu.Lock()
	at := time.Now()
	v := refRoutine()
	refMu.Unlock()
	h.mu.Lock()
	h.samples = append(h.samples, refSample{at, v})
	h.mu.Unlock()
	return at
}

func (h *hostRef) burst(n int) {
	for i := 0; i < n; i++ {
		h.sample()
	}
}

// seconds lists the samples that began in [from, to]; all of them when to is
// zero.
func (h *hostRef) seconds(from, to time.Time) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []float64
	for _, s := range h.samples {
		if to.IsZero() || (!s.at.Before(from) && !s.at.After(to)) {
			out = append(out, s.seconds)
		}
	}
	return out
}

func (h *hostRef) all() []float64 { return h.seconds(time.Time{}, time.Time{}) }

// scale is what a time measured in [from, to] is multiplied by (a rate is
// divided by it): refNominal ÷ the median sample of that interval, 1 when it
// holds none.
func (h *hostRef) scale(from, to time.Time) float64 {
	if m := median(h.seconds(from, to)); m > 0 {
		return refNominal / m
	}
	return 1
}

// bracket scales reps that run back to back: a sample before the first rep
// and one after each, every rep scaled by the samples from the one before it
// to the one after it. Reps of a quarter second and more run with during
// started as well, so that what happens inside a rep is sampled too.
type bracket struct {
	h    *hostRef
	from time.Time
}

func (h *hostRef) bracket() *bracket { return &bracket{h, h.sample()} }

// scale is called when a rep has ended; it returns what to multiply the
// rep's seconds by.
func (b *bracket) scale() float64 {
	to := b.h.sample()
	k := b.h.scale(b.from, to)
	b.from = to
	return k
}

// during samples every refPeriod from a goroutine of its own until the
// returned function is called; that function waits for the goroutine to end.
func (h *hostRef) during() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(refPeriod)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
