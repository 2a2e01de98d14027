package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/discover"
	"repro/internal/partition"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

// dgemmCodelet mirrors the case study's DGEMM task interface: a GotoBLAS-
// like x86 kernel (runnable) and a CuBLAS-like gpu kernel (simulation-only).
func dgemmCodelet() *taskrt.Codelet {
	cl, err := taskrt.NewCodelet("dgemm",
		taskrt.Impl{Arch: "x86", Func: realGemmTile},
		taskrt.Impl{Arch: "gpu"},
	)
	if err != nil {
		panic(err) // static definition
	}
	return cl
}

// realGemmTile multiplies one tile triple in real mode: payloads are the
// A, B and C matrix views in access order.
func realGemmTile(tc *taskrt.TaskContext) error {
	a, okA := tc.Payload(0).(*blas.Matrix)
	b, okB := tc.Payload(1).(*blas.Matrix)
	c, okC := tc.Payload(2).(*blas.Matrix)
	if !okA || !okB || !okC {
		return fmt.Errorf("experiments: dgemm payloads are (%T,%T,%T)", tc.Payload(0), tc.Payload(1), tc.Payload(2))
	}
	return blas.GemmPacked(a, b, c, blas.DefaultBlock)
}

// SubmitTiledGEMM builds the StarPU-style tiled DGEMM task graph for
// C += A·B with n×n matrices and tile×tile tiles: one task per (i, j, k)
// tile triple, with read accesses on A(i,k) and B(k,j) and a readwrite
// access on C(i,j) (the k-chain on each C tile orders accumulation, exactly
// how the StarPU DGEMM of the paper's evaluation decomposes).
//
// When mats is nil the graph carries size-only handles (simulation); with
// mats the handles reference real matrix tile views.
func SubmitTiledGEMM(rt *taskrt.Runtime, n, tile int, mats *GemmMatrices) error {
	if n <= 0 || tile <= 0 || tile > n {
		return fmt.Errorf("experiments: bad gemm extent n=%d tile=%d", n, tile)
	}
	tiles, err := partition.Grid2D(n, n, tile, tile)
	if err != nil {
		return err
	}
	rows, cols := partition.GridDims(n, n, tile, tile)
	cl := dgemmCodelet()

	// One handle per tile of each matrix.
	handleFor := func(name string, t partition.Tile, m *blas.Matrix) *taskrt.Handle {
		var payload any
		if m != nil {
			payload = m.Sub(t.Row, t.Col, t.M, t.N)
		}
		return rt.NewHandle(
			fmt.Sprintf("%s[%d,%d]", name, t.I, t.J),
			int64(t.M)*int64(t.N)*8,
			payload,
		)
	}
	var mA, mB, mC *blas.Matrix
	if mats != nil {
		mA, mB, mC = mats.A, mats.B, mats.C
	}
	hA := make([]*taskrt.Handle, len(tiles))
	hB := make([]*taskrt.Handle, len(tiles))
	hC := make([]*taskrt.Handle, len(tiles))
	for idx, t := range tiles {
		hA[idx] = handleFor("A", t, mA)
		hB[idx] = handleFor("B", t, mB)
		hC[idx] = handleFor("C", t, mC)
	}
	at := func(h []*taskrt.Handle, i, j int) *taskrt.Handle { return h[i*cols+j] }

	// Build the whole graph first and submit it as one batch: dependency
	// derivation is identical to per-task Submit calls, but the runtime pays
	// the submission lifecycle synchronisation once for the rows·cols² tasks.
	graph := make([]*taskrt.Task, 0, rows*cols*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			for k := 0; k < cols; k++ {
				// Tile extents differ at the edges; flops follow the actual
				// tile triple.
				ta := tiles[i*cols+k]
				tb := tiles[k*cols+j]
				graph = append(graph, &taskrt.Task{
					Codelet: cl,
					Accesses: []taskrt.Access{
						taskrt.R(at(hA, i, k)),
						taskrt.R(at(hB, k, j)),
						taskrt.RW(at(hC, i, j)),
					},
					Flops: blas.FlopsGEMM(ta.M, tb.N, ta.N),
					Label: fmt.Sprintf("C[%d,%d]+=A[%d,%d]*B[%d,%d]", i, j, i, k, k, j),
				})
			}
		}
	}
	return rt.SubmitBatch(graph)
}

// GemmMatrices bundles real operands for real-mode tiled DGEMM.
type GemmMatrices struct {
	A, B, C *blas.Matrix
}

// NewGemmMatrices allocates and seeds n×n operands.
func NewGemmMatrices(n int, seed int64) *GemmMatrices {
	m := &GemmMatrices{A: blas.NewMatrix(n, n), B: blas.NewMatrix(n, n), C: blas.NewMatrix(n, n)}
	m.A.FillRandom(seed)
	m.B.FillRandom(seed + 1)
	return m
}

// SimDGEMM runs the tiled DGEMM graph in simulation on the given platform
// and returns the execution report.
func SimDGEMM(pl *core.Platform, n, tile int, scheduler string) (*taskrt.Report, error) {
	rt, err := taskrt.New(taskrt.Config{Platform: pl, Mode: taskrt.Sim, Scheduler: scheduler})
	if err != nil {
		return nil, err
	}
	if err := SubmitTiledGEMM(rt, n, tile, nil); err != nil {
		return nil, err
	}
	return rt.Run()
}

// RealDGEMM runs the tiled DGEMM graph on real goroutine workers under the
// named real-engine scheduler ("ws" or "dmda"; empty selects the default
// work stealing), recording causal spans into tr when it is non-nil, and
// with verify checks the numerical result against the serial kernel.
func RealDGEMM(pl *core.Platform, n, tile, workers int, verify bool, sched string, tr *trace.Trace) (*taskrt.Report, error) {
	rt, err := taskrt.New(taskrt.Config{Platform: pl, Mode: taskrt.Real, Scheduler: sched, Workers: workers, Trace: tr})
	if err != nil {
		return nil, err
	}
	mats := NewGemmMatrices(n, 42)
	if err := SubmitTiledGEMM(rt, n, tile, mats); err != nil {
		return nil, err
	}
	rep, err := rt.Run()
	if err != nil {
		return nil, err
	}
	if verify {
		ref := blas.NewMatrix(n, n)
		if err := blas.GemmBlocked(mats.A, mats.B, ref, blas.DefaultBlock); err != nil {
			return nil, err
		}
		if d := blas.MaxDiff(ref, mats.C); d > 1e-8 {
			return nil, fmt.Errorf("experiments: tiled result diverges from reference by %g", d)
		}
	}
	return rep, nil
}

// TraceGemmRun executes the real-mode tiled DGEMM on this host under the
// named scheduler (empty selects the default) with causal tracing enabled
// and returns the trace, annotated with the dispatcher, the selected GEMM
// micro-kernel ISA and the problem size — the artefact behind
// `examples/dgemm -trace out.json`, the README tracing walkthrough.
func TraceGemmRun(n, tile, workers int, verify bool, sched string) (*trace.Trace, *taskrt.Report, error) {
	pl, err := discover.Platform("this-host")
	if err != nil {
		return nil, nil, err
	}
	tr := trace.New()
	rep, err := RealDGEMM(pl, n, tile, workers, verify, sched, tr)
	if err != nil {
		return nil, nil, err
	}
	tr.SetMeta("dispatcher", rep.Scheduler)
	tr.SetMeta("microkernel", blas.KernelISA())
	tr.SetMeta("n", strconv.Itoa(n))
	tr.SetMeta("tile", strconv.Itoa(tile))
	return tr, rep, nil
}
