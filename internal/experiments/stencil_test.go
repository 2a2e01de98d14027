package experiments

import (
	"strconv"
	"testing"

	"repro/internal/discover"
	"repro/internal/taskrt"
)

// simStencil runs the size-only Jacobi graph in simulation under ws.
func simStencil(platform string, n, chunks, iters int) (*taskrt.Report, error) {
	cfg := taskrt.Config{Platform: discover.MustPlatform(platform), Mode: taskrt.Sim, Scheduler: "ws"}
	return Run(cfg, Stencil(n, chunks, iters, nil))
}

func TestSubmitStencilValidation(t *testing.T) {
	if _, err := simStencil("xeon-1core", 0, 4, 2); err == nil {
		t.Fatal("n=0 must fail")
	}
	if _, err := simStencil("xeon-1core", 16, 32, 2); err == nil {
		t.Fatal("chunks > n must fail")
	}
	if _, err := simStencil("xeon-1core", 16, 4, 0); err == nil {
		t.Fatal("iters=0 must fail")
	}
}

func TestSimStencilTaskCountAndChains(t *testing.T) {
	rep, err := simStencil("xeon-cpu", 1<<20, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != 80 {
		t.Fatalf("tasks = %d; want 80", rep.Tasks)
	}
	// Iterations are serialised: with 8 chunks on 8 cores, makespan is at
	// least iters × one chunk time.
	oneIterSerial := 4 * float64(1<<20) / 8 / (10.64 * 0.92 * 1e9)
	if rep.MakespanSeconds < 10*oneIterSerial*0.9 {
		t.Fatalf("makespan %g ignores iteration dependencies (min %g)",
			rep.MakespanSeconds, 10*oneIterSerial)
	}
}

func TestRealStencilVerifies(t *testing.T) {
	cfg := taskrt.Config{Platform: discover.MustPlatform("this-host"), Mode: taskrt.Real, Workers: 4}
	rep, err := Run(cfg, Stencil(4096, 8, 6, NewStencilBuffers(4096)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != 48 {
		t.Fatalf("tasks = %d", rep.Tasks)
	}
}

// chunks ∤ n: the last chunk takes the remainder, its handle is sized for
// what it covers, and the sweep still matches the serial reference.
func TestStencilUnevenLastChunk(t *testing.T) {
	const n, chunks, iters = 1003, 8, 5 // per = 125, last chunk 128
	rt, err := taskrt.New(taskrt.Config{Platform: discover.MustPlatform("xeon-1core"), Mode: taskrt.Sim})
	if err != nil {
		t.Fatal(err)
	}
	if err := SubmitStencil(rt, n, chunks, iters, nil); err != nil {
		t.Fatal(err)
	}
	_, handles, err := rt.Graph()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, h := range handles[:chunks] {
		total += h.Bytes
	}
	if last := handles[chunks-1].Bytes; last != 128*8 || total != n*8 {
		t.Fatalf("generation 0: last handle %d bytes (want %d), all chunks %d bytes (want %d)", last, 128*8, total, n*8)
	}
	cfg := taskrt.Config{Platform: discover.MustPlatform("this-host"), Mode: taskrt.Real, Workers: 3}
	if _, err := Run(cfg, Stencil(n, chunks, iters, NewStencilBuffers(n))); err != nil {
		t.Fatal(err)
	}
}

func TestSerialJacobiConservesNothingButIsStable(t *testing.T) {
	u0 := []float64{0, 0, 8, 0, 0}
	u := serialJacobi(u0, 1)
	// Centre loses half to its neighbours.
	if u[2] != 4 || u[1] != 2 || u[3] != 2 {
		t.Fatalf("u = %v", u)
	}
	// Input untouched.
	if u0[2] != 8 {
		t.Fatal("serialJacobi mutated its input")
	}
}

func TestStencilSweepShape(t *testing.T) {
	res, err := StencilSweep(1<<20, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	get := func(i int) float64 {
		v, _ := strconv.ParseFloat(res.Rows[i][1], 64)
		return v
	}
	single, eight, gpus := get(0), get(1), get(2)
	// 8 cores beat 1 core; the GPU platform must NOT show the DGEMM-style
	// blowout on this low-intensity workload (allow modest gain).
	if eight >= single {
		t.Fatalf("8 cores (%g) not faster than 1 (%g)", eight, single)
	}
	if gpus < eight/3 {
		t.Fatalf("gpu platform suspiciously fast on a bandwidth-bound stencil: %g vs %g", gpus, eight)
	}
}
