package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/taskrt"
)

// TestLivenessHasOneOwner plays the loop with no heartbeat goroutine and no
// clock: a node's liveness moves only when the test calls probed or
// handleResult, and n.alive is the only place it is written down.
func TestLivenessHasOneOwner(t *testing.T) {
	st := fakeRun(t, nil, []string{"live"}, 8)
	n := st.nodes[0]
	info := InfoResponse{Name: "live", Archs: []string{"x86"}, Workers: 2}
	silence := errors.New("probe: connection refused")
	const misses = heartbeatMisses
	missed := func() float64 { return cm.hbMisses.With("live").Value() }
	missed0 := missed()

	// down → answer → up, what was believed resident forgotten. The silence of
	// a node that is already down is not a miss.
	n.alive, n.credits = false, 0
	n.has[0] = cached{3, true}
	st.probed(n, InfoResponse{}, silence)
	if n.alive || missed() != missed0 {
		t.Fatalf("a failed probe of a down node: alive=%v, %v misses counted", n.alive, missed()-missed0)
	}
	st.probed(n, info, nil)
	if !n.alive || n.residents() != 0 || n.credits != 4 || n.info.Workers != 2 {
		t.Fatalf("after an answered probe: alive=%v residents=%d credits=%d info=%+v", n.alive, n.residents(), n.credits, n.info)
	}

	// up → heartbeatMisses failed probes in a row → down, its chains resubmitted.
	a, b := placeHead(t, st, st.graph.Tasks()[0]), placeHead(t, st, st.graph.Tasks()[1])
	for round := 0; round < 2; round++ {
		for i := 1; i < misses; i++ {
			st.probed(n, InfoResponse{}, silence)
		}
		if !n.alive {
			t.Fatalf("down after %d misses in a row, want %d", misses-1, misses)
		}
		if round == 0 {
			st.probed(n, info, nil) // an answer starts the count over
		}
	}
	st.probed(n, InfoResponse{}, silence)
	if n.alive || !a.released || !b.released || n.stats.Resubmits != 2 || st.flying != 0 {
		t.Fatalf("after %d misses in a row: alive=%v, records released %v/%v, %d resubmitted, %d in flight",
			misses, n.alive, a.released, b.released, n.stats.Resubmits, st.flying)
	}
	checkBacklog(t, st)
	if got, want := missed()-missed0, float64(2*misses-1); got != want {
		t.Fatalf("%v heartbeat misses counted, want %v: the failed probes of the node while it was up", got, want)
	}

	// The PR-8 scenario: the data plane fails twice under a node whose control
	// plane answers, so the loop takes it down on its own evidence — and the
	// next answered probe brings it back, with no handshake to forget.
	st.probed(n, info, nil)
	for i, task := range st.graph.Tasks()[2:4] {
		rec := placeHead(t, st, task)
		if done, err := st.handleResult(event{kind: evResult, rec: rec, err: errors.New("stream reset")}); done != 0 || err != nil {
			t.Fatalf("transport error %d: done=%d err=%v", i+1, done, err)
		}
		if n.alive != (i == 0) {
			t.Fatalf("after %d transport errors in a row: alive=%v", i+1, n.alive)
		}
	}
	st.probed(n, info, nil)
	if !n.alive || n.suspects != 0 || n.credits != n.maxCred {
		t.Fatalf("after the next answered probe: alive=%v suspects=%d credits=%d/%d", n.alive, n.suspects, n.credits, n.maxCred)
	}
	checkBacklog(t, st)
}

// markingTransport is a Config.HTTP transport that stamps what passes through
// it and notes the path.
type markingTransport struct {
	mu    sync.Mutex
	paths map[string]int
}

const viaConfigHTTP = "X-Via-Config-Http"

func (mt *markingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	mt.mu.Lock()
	mt.paths[r.URL.Path]++
	mt.mu.Unlock()
	r = r.Clone(r.Context())
	r.Header.Set(viaConfigHTTP, "1")
	return http.DefaultTransport.RoundTrip(r)
}

// The master reaches a node only through Config.HTTP: its probes used to go
// out on http.DefaultTransport, past whatever transport the caller supplied.
func TestControlPlaneUsesConfigHTTP(t *testing.T) {
	cl := gemmTestCodelet(t, time.Millisecond)
	w, err := NewWorker(WorkerConfig{Name: "n", Archs: []string{"x86"}, Codelets: []*taskrt.Codelet{cl}})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		bypassed []string
		inner    = w.Handler()
	)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Header.Get(viaConfigHTTP) == "" {
			mu.Lock()
			bypassed = append(bypassed, r.Method+" "+r.URL.Path)
			mu.Unlock()
		}
		inner.ServeHTTP(rw, r)
	}))
	t.Cleanup(srv.Close)

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 32, 16)
	mt := &markingTransport{paths: map[string]int{}}
	m := fastMaster(t, []NodeConfig{{Name: "n", Addr: srv.URL}}, func(cfg *Config) {
		cfg.HTTP = &http.Client{Transport: mt}
	})
	if _, err := m.Run(rt); err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)

	mu.Lock()
	defer mu.Unlock()
	if len(bypassed) > 0 {
		t.Fatalf("requests reached the node past Config.HTTP: %v", bypassed)
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if mt.paths[PathInfo] == 0 || mt.paths[PathExecute] == 0 || len(mt.paths) != 2 {
		t.Fatalf("Config.HTTP carried %v, want the probes (%s, nothing else) and the stream (%s)", mt.paths, PathInfo, PathExecute)
	}
}
