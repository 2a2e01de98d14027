package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/discover"
	"repro/internal/taskrt"
)

func TestResultTable(t *testing.T) {
	r := &Result{Name: "demo", Headers: []string{"a", "bee"}}
	r.AddRow("1", "2")
	r.AddRow("333", "4")
	r.Notes = append(r.Notes, "hello")
	s := r.Table()
	for _, want := range []string{"== demo ==", "a    bee", "333", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func TestSubmitTiledGEMMValidation(t *testing.T) {
	pl := discover.MustPlatform("xeon-1core")
	if _, err := SimDGEMM(pl, 0, 64, "ws"); err == nil {
		t.Fatal("n=0 must fail")
	}
	if _, err := SimDGEMM(pl, 64, 128, "ws"); err == nil {
		t.Fatal("tile > n must fail")
	}
}

func TestSimDGEMMTaskCount(t *testing.T) {
	pl := discover.MustPlatform("xeon-1core")
	rep, err := SimDGEMM(pl, 1024, 256, "ws")
	if err != nil {
		t.Fatal(err)
	}
	// 4x4 grid, k in 0..3: 64 tasks.
	if rep.Tasks != 64 {
		t.Fatalf("tasks = %d; want 64", rep.Tasks)
	}
}

// TestTiledGEMMLabels pins the spelling of the handle names SubmitTiledGEMM
// formats and of the labels it cuts from them to the format strings they
// replaced, on a grid with two-digit indices.
func TestTiledGEMMLabels(t *testing.T) {
	rt, err := taskrt.New(taskrt.Config{Platform: discover.MustPlatform("xeon-1core"), Mode: taskrt.Sim})
	if err != nil {
		t.Fatal(err)
	}
	const T = 11
	if err := SubmitTiledGEMM(rt, T*8, 8, nil); err != nil {
		t.Fatal(err)
	}
	g := rt.Graph()
	for n, task := range g.Tasks() {
		i, j, k := n/(T*T), n/T%T, n%T
		if want := fmt.Sprintf("C[%d,%d]+=A[%d,%d]*B[%d,%d]", i, j, i, k, k, j); task.Label != want {
			t.Fatalf("task %d is labelled %q, want %q", n, task.Label, want)
		}
	}
	for n, h := range g.Handles() {
		if want := fmt.Sprintf("%c[%d,%d]", "ABC"[n/(T*T)], n/T%T, n%T); h.Name != want {
			t.Fatalf("handle %d is named %q, want %q", n, h.Name, want)
		}
	}
}

// TestSimDGEMMAllocations bounds what one task of Figure 5's graph costs in
// allocations from SubmitTiledGEMM to the end of the simulated run (the run
// alone is bounded by taskrt's TestSimRunAllocations). Tasks and access
// lists come from two slabs, every label is a substring of one string, the
// handles are cut from chunks of 256, and the runtime keeps the edges and the
// handles' readers in a few tables by id that SubmitBatch grows once for the
// batch, the reader log for read-mode accesses only: 0.11 allocations and 309
// bytes a task, the byte bound 10 % above that. With a heap object per handle
// and the reader log sized for every access it was 0.20 and 325. Grown by
// doubling instead, the tables cost 390 bytes a task. Deps and dependents cut
// from a shared chunk, with a reader list on every handle, measured 0.58; a
// label string of its own per task 1.58; one allocation each for the Task,
// its []Access, fmt.Sprintf, deps and dependents 5.6.
func TestSimDGEMMAllocations(t *testing.T) {
	const maxPerTask, maxBytesPerTask = 0.15, 340
	rt, err := taskrt.New(taskrt.Config{Platform: discover.MustPlatform("xeon-2gpu"), Mode: taskrt.Sim, Scheduler: "dmda"})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := SubmitTiledGEMM(rt, 8192, 256, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perTask := float64(after.Mallocs-before.Mallocs) / float64(rt.Tasks())
	bytesPerTask := float64(after.TotalAlloc-before.TotalAlloc) / float64(rt.Tasks())
	t.Logf("%d tasks, %.2f allocations and %.0f bytes per task", rt.Tasks(), perTask, bytesPerTask)
	if perTask > maxPerTask {
		t.Errorf("%.2f allocations per task, want at most %.2f", perTask, maxPerTask)
	}
	if bytesPerTask > maxBytesPerTask {
		t.Errorf("%.0f bytes per task, want at most %d", bytesPerTask, maxBytesPerTask)
	}
}

func TestFigure5Shape(t *testing.T) {
	// Scaled down for test speed; the bench uses the paper's 8192.
	res, err := Figure5(Fig5Config{N: 2048, Tile: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	speedup := func(i int) float64 {
		v, err := strconv.ParseFloat(res.Rows[i][3], 64)
		if err != nil {
			t.Fatalf("parse speedup: %v", err)
		}
		return v
	}
	single, starpu, gpus := speedup(0), speedup(1), speedup(2)
	if single != 1.0 {
		t.Fatalf("single speedup = %g", single)
	}
	// The paper's shape: starpu well above single, starpu+2gpu well above
	// starpu.
	if starpu < 5 || starpu > 8.5 {
		t.Fatalf("starpu speedup = %g; want near-linear on 8 cores", starpu)
	}
	if gpus < starpu*1.5 {
		t.Fatalf("starpu+2gpu speedup = %g; want >> starpu (%g)", gpus, starpu)
	}
	// GPU series actually used the GPUs and moved data.
	if res.Rows[2][4] == "0" {
		t.Fatal("gpu series ran no gpu tasks")
	}
	if res.Rows[0][4] != "0" {
		t.Fatal("single series used gpus")
	}
}

func TestFigure5DefaultsApplied(t *testing.T) {
	cfg := Fig5Config{}
	cfg.defaults()
	if cfg.N != 8192 || cfg.Tile != 1024 || cfg.Scheduler != "dmda" {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestSchedulerSweep(t *testing.T) {
	res, err := SchedulerSweep(2048, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// dmda should beat or match ws on the heterogeneous box (ws ignores
	// transfer costs and device speed).
	get := func(i int) float64 {
		v, _ := strconv.ParseFloat(res.Rows[i][1], 64)
		return v
	}
	ws, dmda := get(0), get(1)
	if dmda > ws*1.10 {
		t.Fatalf("dmda (%g) much worse than ws (%g)", dmda, ws)
	}
}

func TestTileSweep(t *testing.T) {
	res, err := TileSweep(2048, []int{512, 1024, 4096}, "")
	if err != nil {
		t.Fatal(err)
	}
	// 4096 > n is skipped.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestBandwidthSweepMonotone(t *testing.T) {
	res, err := BandwidthSweep(2048, 512, []float64{0.1, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	get := func(i int) float64 {
		v, _ := strconv.ParseFloat(res.Rows[i][2], 64)
		return v
	}
	// More bandwidth never hurts.
	if !(get(0) >= get(1) && get(1) >= get(2)) {
		t.Fatalf("makespans not monotone in bandwidth: %g %g %g", get(0), get(1), get(2))
	}
}

func TestBandwidthSweepNeedsPCIe(t *testing.T) {
	pl := discover.MustPlatform("xeon-cpu")
	if err := scalePCIeBandwidth(pl, 2); err == nil {
		t.Fatal("platform without PCIe links must fail")
	}
}

func TestCrossover(t *testing.T) {
	res, err := Crossover([]int{256, 4096}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Large sizes must favour the GPUs.
	if res.Rows[1][3] != "2gpu" {
		t.Fatalf("winner at 4096 = %q", res.Rows[1][3])
	}
}

func TestRealDGEMMVerifies(t *testing.T) {
	pl := discover.MustPlatform("this-host")
	rep, err := Run(taskrt.Config{Platform: pl, Mode: taskrt.Real, Workers: 4}, GEMM(128, 32, NewGemmMatrices(128, 42)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != 64 {
		t.Fatalf("tasks = %d", rep.Tasks)
	}
}

func TestRealCPUScalingSmall(t *testing.T) {
	res, err := RealCPUScaling(192, 48, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}
