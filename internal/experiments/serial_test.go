package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/discover"
	"repro/internal/taskrt"
)

// serial runs g's tasks in id order on the calling goroutine, each through its
// codelet's x86 Impl: the sequential program g was derived from. Submit orders
// every two accesses to a handle of which one writes, and every tile kernel's
// output is pinned bit for bit (internal/blas testdata/kernels.golden), so any
// engine's run of g must leave exactly the bits serial leaves.
func serial(t *testing.T, g *taskrt.Graph) {
	t.Helper()
	for _, task := range g.Tasks() {
		tc := &taskrt.TaskContext{Arch: "x86", Task: task}
		for _, a := range task.Accesses {
			tc.Data = append(tc.Data, a.Handle.Payload)
		}
		if err := task.Codelet.ImplFor("x86").Func(tc); err != nil {
			t.Fatalf("serial: task %d (%s): %v", task.ID(), task.Label, err)
		}
	}
}

// sameBits fails unless got holds want's elements bit for bit.
func sameBits(t *testing.T, what string, got, want *blas.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, serial %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: (%d,%d) is %v, serial %v (max diff %g)", what, i, j, g, w, blas.MaxDiff(got, want))
			}
		}
	}
}

// restore copies src's elements into dst, which the graph's handles view.
func restore(dst, src *blas.Matrix) {
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Data[i*dst.Stride:i*dst.Stride+dst.Cols], src.Data[i*src.Stride:i*src.Stride+src.Cols])
	}
}

// One tiled Cholesky graph runs serially, then on Real ws, then on Real dmda,
// from the same matrix each time: both engines leave serial's bits.
func TestSerialOracleCholesky(t *testing.T) {
	const n, tile = 512, 128
	m := factorMatrix("cholesky", n)
	m0 := m.Clone()
	g, err := mustFactor(t, "cholesky", n, tile, m).Graph()
	if err != nil {
		t.Fatal(err)
	}
	serial(t, g)
	want := m.Clone()
	for _, sched := range []string{"ws", "dmda"} {
		restore(m, m0)
		cfg := taskrt.Config{Platform: discover.MustPlatform("this-host"), Mode: taskrt.Real, Scheduler: sched, Workers: 4}
		if _, err := taskrt.Run(g, cfg); err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		sameBits(t, "cholesky on Real "+sched, m, want)
	}
}

// One runtime's tiled GEMM graph runs through the cluster master on two
// loopback workers and then, with C reset, through the runtime's own Run: the
// master leaves the runtime runnable, and both leave serial's bits.
func TestSerialOracleClusterThenReal(t *testing.T) {
	const n, tile = 384, 128
	mats := NewGemmMatrices(n, 42)
	c0 := mats.C.Clone()
	rt, err := taskrt.New(taskrt.Config{Platform: discover.MustPlatform("this-host"), Mode: taskrt.Real, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := SubmitTiledGEMM(rt, n, tile, mats); err != nil {
		t.Fatal(err)
	}
	serial(t, rt.Graph())
	want := mats.C.Clone()

	restore(mats.C, c0)
	stop, nodes, err := startLoopbackWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	m, err := cluster.NewMaster(cluster.Config{Nodes: nodes, HeartbeatEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(rt); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "GEMM through the cluster master", mats.C, want)

	restore(mats.C, c0)
	if _, err := rt.Run(); err != nil {
		t.Fatalf("Run after the cluster master's run: %v", err)
	}
	sameBits(t, "GEMM on Real after the cluster run", mats.C, want)
}
