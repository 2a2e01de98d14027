package taskrt

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/trace"
)

// twoNodePlatform declares two single-core masters of the same architecture
// joined by a deliberately slow PCIe link, so the only thing distinguishing
// the workers under dmda is where the data lives.
func twoNodePlatform(t testing.TB) *core.Platform {
	t.Helper()
	pl, err := core.NewBuilder("twonode").
		Master("n0", core.Arch("x86"), core.Qty(1)).
		Master("n1", core.Arch("x86"), core.Qty(1)).
		Link(core.ICTypePCIe, "n0", "n1", core.Bandwidth(0.5), core.Latency(100)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// Data-aware dmda on a two-node platform must anchor chains of readwrite
// tasks to the node holding their operand: with equal architectures and
// pre-warmed models the transfer term is the tie-breaker, so the majority of
// placements land data-resident (Transfer == 0 on the Place event), while
// the initial distribution of chains across nodes pays a modelled transfer
// that must be recorded on the trace.
func TestRealDmdaDataResidentPlacement(t *testing.T) {
	// One chain handle is 1 MiB: over the declared 0.5 GB/s + 100 µs link
	// that models to ~2 ms, comparable to one task's ~2 ms predicted compute.
	// Seeding the four chains therefore spreads them across both nodes (the
	// third chain's modelled move is cheaper than waiting behind node 0's
	// backlog), after which residency anchors every later placement.
	const (
		chains  = 4
		length  = 6
		handleB = 1 << 20
	)
	var mu sync.Mutex
	ran := 0
	cl, err := NewCodelet("anchor", Impl{Arch: "x86", Func: func(tc *TaskContext) error {
		time.Sleep(200 * time.Microsecond)
		mu.Lock()
		ran++
		mu.Unlock()
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	models := perfmodel.NewStore()
	for _, sz := range []float64{1e8, 2e8, 4e8} {
		if err := models.Model("anchor", "x86").Record(sz, sz/1e12); err != nil {
			t.Fatal(err)
		}
	}
	tr := trace.New()
	rt, err := New(Config{
		Platform:  twoNodePlatform(t),
		Mode:      Real,
		Scheduler: "dmda",
		Workers:   2,
		Models:    models,
		Trace:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*Task, 0, chains*length)
	for c := 0; c < chains; c++ {
		h := rt.NewHandle("chain", handleB, nil)
		for i := 0; i < length; i++ {
			batch = append(batch, &Task{
				Codelet:  cl,
				Accesses: []Access{RW(h)},
				Flops:    2e9,
			})
		}
	}
	if err := rt.SubmitBatch(batch); err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != len(batch) || ran != len(batch) {
		t.Fatalf("report %d tasks, %d kernels ran, submitted %d", rep.Tasks, ran, len(batch))
	}
	placed, resident, moved := 0, 0, 0
	for _, e := range tr.Events() {
		if e.Kind != trace.Place {
			continue
		}
		placed++
		if e.Transfer == 0 {
			resident++
		} else {
			moved++
		}
	}
	if placed != len(batch) {
		t.Fatalf("%d Place events, want one per task (%d)", placed, len(batch))
	}
	// Chains serialise on their handle, so after the first hop every
	// placement should find the operand already resident. Steals can
	// re-anchor a chain mid-run, so allow a minority of paid moves.
	if resident*3 < placed*2 {
		t.Errorf("data-resident placements = %d/%d, want at least two thirds", resident, placed)
	}
	// All chain data starts on node 0; spreading chains across both nodes
	// must charge (and trace) at least one modelled transfer.
	if moved == 0 {
		t.Error("no Place event carries a transfer charge; the interconnect model never engaged")
	}
}

// Without declared interconnects the dispatcher must stay transfer-blind:
// every placement scores with a zero transfer term and no Place event carries
// a transfer charge.
func TestRealDmdaNoRoutesStaysTransferBlind(t *testing.T) {
	cl, err := NewCodelet("blind", Impl{Arch: "x86", Func: func(*TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	rt, err := New(Config{
		Platform:  cpuPlatform(t, 2),
		Mode:      Real,
		Scheduler: "dmda",
		Workers:   2,
		Trace:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle("h", 8<<20, nil)
	for i := 0; i < 8; i++ {
		if err := rt.Submit(&Task{Codelet: cl, Accesses: []Access{RW(h)}, Flops: 1e8}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events() {
		if e.Kind == trace.Place && e.Transfer != 0 {
			t.Fatalf("Place event carries transfer %v on a platform with no declared routes", e.Transfer)
		}
	}
}

// The untraced dmda hot path — push, take, finished, and a batch placed by
// a worker — must not allocate in steady state: the estimate snapshot is
// cached, a batch prices into its pusher's scratch, and no trace instants or
// reason strings are built when tracing is off.
func TestDmdaHotPathNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	cl, err := NewCodelet("alloc", Impl{Arch: "x86", Func: func(*TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	models := perfmodel.NewStore()
	if err := models.Model("alloc", "x86").Record(1e9, 1e-3); err != nil {
		t.Fatal(err)
	}
	h := &Handle{Name: "h", Bytes: 1 << 20}
	task := &Task{Codelet: cl, Accesses: []Access{RW(h)}, Flops: 1e9}
	links := [][]placement.Link{
		{{}, {LatNanos: 1e4, NanosPerByte: 0.2}},
		{{LatNanos: 1e4, NanosPerByte: 0.2}, {}},
	}
	d := newDmdaDispatcher([]string{"x86", "x86"}, []int{0, 1}, links, []*Task{task}, []*Handle{h}, models)
	abort := make(chan struct{})
	allocs := testing.AllocsPerRun(200, func() {
		d.push(-1, task)
		if d.depth(0)+d.depth(1) != 1 {
			t.Fatal("push must queue the task")
		}
		got, _ := d.take(0, abort)
		if got == nil {
			t.Fatal("take returned nil with a task queued")
		}
		d.finished(0, got, time.Millisecond, true)
	})
	if allocs != 0 {
		t.Fatalf("dmda push/take/finished allocates %.1f objects per task, want 0", allocs)
	}

	// A warm 64-task batch from a worker: mixed priorities, operands on both
	// nodes. Its scratch is the worker's own and grew on the first run.
	hs := []*Handle{{Name: "a", Bytes: 1 << 20}, {Name: "b", Bytes: 1 << 20, id: 1}}
	batch := make([]*Task, 64)
	for i := range batch {
		batch[i] = &Task{Codelet: cl, Accesses: []Access{R(hs[i%2])}, Flops: 1e9, Priority: i % 3}
	}
	d = newDmdaDispatcher([]string{"x86", "x86"}, []int{0, 1}, links, numbered(batch), hs, models)
	allocs = testing.AllocsPerRun(50, func() {
		d.pushBatch(1, batch)
		if d.depth(0)+d.depth(1) != len(batch) {
			t.Fatal("the batch must queue every task")
		}
		for w := range d.workers {
			for got := d.workers[w].q.steal(); got != nil; got = d.workers[w].q.steal() {
				d.finished(w, got, time.Millisecond, true)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm 64-task dmda pushBatch allocates %.1f objects, want 0", allocs)
	}
}
