package taskrt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCreditSemBatchReleaseWakesAllParked parks a full complement of workers
// on an empty semaphore, then releases their credits as one batch: every
// parked worker must wake, and the credit count must balance exactly —
// the invariant the dispatcher's batched push path depends on.
func TestCreditSemBatchReleaseWakesAllParked(t *testing.T) {
	const workers = 8
	s := newCreditSem(workers + workers)
	done := make(chan struct{})
	abort := make(chan struct{})

	var acquired atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	started := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			started <- struct{}{}
			if s.take() || s.wait(done, abort) {
				acquired.Add(1)
			}
		}()
	}
	for i := 0; i < workers; i++ {
		<-started
	}
	// Give every worker time to reach the parked state (credits negative).
	deadline := time.Now().Add(time.Second)
	for s.credits.Load() != -workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.credits.Load(); got != -workers {
		t.Fatalf("expected %d parked workers (credits=-%d), credits=%d", workers, workers, got)
	}

	// One batch release must hand exactly `workers` wake tokens.
	s.release(workers)
	wg.Wait()
	if got := acquired.Load(); got != workers {
		t.Fatalf("acquired %d credits, want %d", got, workers)
	}
	if got := s.credits.Load(); got != 0 {
		t.Fatalf("credits not balanced after batch release: %d", got)
	}
}

// TestCreditSemParkWakeStress races batch releases against workers that
// repeatedly park: every released credit must be consumed exactly once (no
// lost wakes, no double grants), and the loop must terminate — the park/wake
// ordering contract under -race.
func TestCreditSemParkWakeStress(t *testing.T) {
	const (
		workers = 6
		batches = 200
		batchN  = 5
	)
	total := batches * batchN
	s := newCreditSem(workers + total)
	done := make(chan struct{})
	abort := make(chan struct{})

	var acquired atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				if !(s.take() || s.wait(done, abort)) {
					return
				}
				acquired.Add(1)
			}
		}()
	}

	// Concurrent producers, each releasing batches while consumers park and
	// re-park between acquisitions.
	var prod sync.WaitGroup
	const producers = 4
	prod.Add(producers)
	per := batches / producers
	for p := 0; p < producers; p++ {
		go func() {
			defer prod.Done()
			for b := 0; b < per; b++ {
				s.release(batchN)
			}
		}()
	}
	prod.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for acquired.Load() != int64(total) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := acquired.Load(); got != int64(total) {
		t.Fatalf("acquired %d credits, want %d (lost wake?)", got, total)
	}
	close(done)
	wg.Wait()
	// All credits consumed: count reflects only the parked-worker debt that
	// done released, never a positive leftover balance.
	if got := s.credits.Load(); got > 0 {
		t.Fatalf("positive credit balance %d after all acquisitions", got)
	}
}

// TestCreditSemAbortUnparksWorkers verifies parked workers exit promptly on
// abort without consuming credits.
func TestCreditSemAbortUnparksWorkers(t *testing.T) {
	s := newCreditSem(4)
	done := make(chan struct{})
	abort := make(chan struct{})
	res := make(chan bool, 3)
	for i := 0; i < 3; i++ {
		go func() { res <- s.take() || s.wait(done, abort) }()
	}
	time.Sleep(10 * time.Millisecond)
	close(abort)
	for i := 0; i < 3; i++ {
		select {
		case ok := <-res:
			if ok {
				t.Fatalf("acquire returned true on abort")
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("parked worker did not exit on abort")
		}
	}
}
