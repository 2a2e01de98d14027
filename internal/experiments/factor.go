package experiments

import (
	"fmt"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

// The tiled factorization experiments: right-looking Cholesky and LU
// (no pivoting) over partition.Grid2D tiles. Unlike the fork-join DGEMM
// graph, these DAGs have a deep k-chain — POTRF(k) gates the whole trailing
// update of step k, and POTRF(k+1) cannot start before SYRK(k+1,k) of step
// k finishes — so critical-path extraction and model-driven placement are
// exercised on the workload class the StarPU papers built them for.

// factorSlowRate is the synthetic extra-work rate of the "x86slow"
// architecture in the skewed-pool runs: every kernel additionally sleeps
// flops/factorSlowRate seconds, making the slow workers 1–2 orders of
// magnitude slower at tile granularity while keeping the numerics
// identical (the real kernel still runs, so results stay verifiable). The
// skew is deliberately sharp: it models an accelerator-class gap, where a
// blindly stolen trailing-update lands a critical-path task on a unit that
// needs tens of milliseconds for it, so model-aware (dmda) placement has
// something real to win over work stealing.
const factorSlowRate = 5e7

// factorSeed seeds the experiment matrices deterministically.
const factorSeed int64 = 99

// NewSPDMatrix returns a symmetric diagonally-dominant — hence positive
// definite — n×n matrix: off-diagonals in [-1, 1), diagonal = n.
func NewSPDMatrix(n int, seed int64) *blas.Matrix {
	m := blas.NewMatrix(n, n)
	m.FillRandom(seed)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			m.Set(j, i, m.At(i, j))
		}
		m.Set(i, i, float64(n))
	}
	return m
}

// NewDiagDominantMatrix returns a diagonally-dominant n×n matrix, stable
// for LU elimination without pivoting.
func NewDiagDominantMatrix(n int, seed int64) *blas.Matrix {
	m := blas.NewMatrix(n, n)
	m.FillRandom(seed)
	for i := 0; i < n; i++ {
		m.Set(i, i, float64(n))
	}
	return m
}

// payloadMatrix extracts payload i as a matrix view.
func payloadMatrix(tc *taskrt.TaskContext, i int) (*blas.Matrix, error) {
	m, ok := tc.Payload(i).(*blas.Matrix)
	if !ok {
		return nil, fmt.Errorf("experiments: %s payload %d is %T, want *blas.Matrix", tc.Task.Codelet.Name, i, tc.Payload(i))
	}
	return m, nil
}

// kernel1 adapts an in-place single-tile kernel (payload 0 = the RW tile).
func kernel1(f func(*blas.Matrix) error) func(*taskrt.TaskContext) error {
	return func(tc *taskrt.TaskContext) error {
		a, err := payloadMatrix(tc, 0)
		if err != nil {
			return err
		}
		return f(a)
	}
}

// kernel2 adapts a two-operand kernel (payload 0 read, payload 1 readwrite).
func kernel2(f func(_, _ *blas.Matrix) error) func(*taskrt.TaskContext) error {
	return func(tc *taskrt.TaskContext) error {
		a, err := payloadMatrix(tc, 0)
		if err != nil {
			return err
		}
		b, err := payloadMatrix(tc, 1)
		if err != nil {
			return err
		}
		return f(a, b)
	}
}

// kernel3 adapts a three-operand kernel (payloads 0, 1 read, 2 readwrite).
func kernel3(f func(_, _, _ *blas.Matrix) error) func(*taskrt.TaskContext) error {
	return func(tc *taskrt.TaskContext) error {
		a, err := payloadMatrix(tc, 0)
		if err != nil {
			return err
		}
		b, err := payloadMatrix(tc, 1)
		if err != nil {
			return err
		}
		c, err := payloadMatrix(tc, 2)
		if err != nil {
			return err
		}
		return f(a, b, c)
	}
}

// slowed wraps a kernel for the "x86slow" architecture: the real kernel
// runs (numerics stay verifiable), then the worker sleeps in proportion to
// task flops to emulate a slower processor.
func slowed(f func(*taskrt.TaskContext) error) func(*taskrt.TaskContext) error {
	return func(tc *taskrt.TaskContext) error {
		if err := f(tc); err != nil {
			return err
		}
		time.Sleep(time.Duration(tc.Task.Flops / factorSlowRate * float64(time.Second)))
		return nil
	}
}

// factorCodelet builds one factorization codelet with a fast x86 impl and a
// flops-proportionally slowed x86slow impl.
func factorCodelet(name string, f func(*taskrt.TaskContext) error) *taskrt.Codelet {
	cl, err := taskrt.NewCodelet(name,
		taskrt.Impl{Arch: "x86", Func: f},
		taskrt.Impl{Arch: "x86slow", Func: slowed(f)},
	)
	if err != nil {
		panic(err) // static definition
	}
	return cl
}

// cholCodelets returns the four tile operations of the right-looking tiled
// Cholesky. Payload order follows access order.
func cholCodelets() (potrf, trsm, syrk, gemm *taskrt.Codelet) {
	potrf = factorCodelet("potrf", kernel1(blas.Potrf))
	trsm = factorCodelet("trsm_rlt", kernel2(blas.TrsmRLT))
	syrk = factorCodelet("syrk_nt", kernel2(blas.SyrkNT))
	gemm = factorCodelet("gemm_nt", kernel3(blas.GemmNT))
	return
}

// luCodelets returns the four tile operations of the right-looking tiled LU
// without pivoting.
func luCodelets() (getrf, trsmRow, trsmCol, gemm *taskrt.Codelet) {
	getrf = factorCodelet("getrf", kernel1(blas.Getrf))
	trsmRow = factorCodelet("trsm_llu", kernel2(blas.TrsmLLUnit))
	trsmCol = factorCodelet("trsm_ru", kernel2(blas.TrsmRU))
	gemm = factorCodelet("gemm_sub", kernel3(blas.GemmSub))
	return
}

// factorHandles builds one handle per tile of the factored matrix (views
// into m when non-nil, size-only otherwise) and returns them with the grid
// dimensions.
func factorHandles(rt *taskrt.Runtime, n, tile int, m *blas.Matrix) ([]*taskrt.Handle, int, error) {
	if n <= 0 || tile <= 0 || tile > n {
		return nil, 0, fmt.Errorf("experiments: bad factor extent n=%d tile=%d", n, tile)
	}
	tiles, err := partition.Grid2D(n, n, tile, tile)
	if err != nil {
		return nil, 0, err
	}
	rows, cols := partition.GridDims(n, n, tile, tile)
	if rows != cols {
		return nil, 0, fmt.Errorf("experiments: factor grid %dx%d not square", rows, cols)
	}
	hs := make([]*taskrt.Handle, len(tiles))
	for idx, t := range tiles {
		var payload any
		if m != nil {
			payload = m.Sub(t.Row, t.Col, t.M, t.N)
		}
		hs[idx] = rt.NewHandle(
			fmt.Sprintf("A[%d,%d]", t.I, t.J),
			int64(t.M)*int64(t.N)*8,
			payload,
		)
	}
	return hs, rows, nil
}

// SubmitTiledCholesky builds the classic right-looking tiled Cholesky DAG
// over the lower triangle of the n×n matrix: for each step k, POTRF on the
// diagonal tile, TRSM down the panel, then SYRK/GEMM across the trailing
// submatrix. Dependencies fall out of the R/RW accesses — the k-chain
// POTRF(k) → TRSM(k+1,k) → SYRK(k+1,k) → POTRF(k+1) is the critical path.
// Task priorities decrease with k so schedulers that honour the hint
// advance the panel chain ahead of bulk trailing updates.
//
// When m is nil the graph carries size-only handles (simulation); with m
// the handles reference tile views and the kernels factor it in place.
func SubmitTiledCholesky(rt *taskrt.Runtime, n, tile int, m *blas.Matrix) error {
	hs, T, err := factorHandles(rt, n, tile, m)
	if err != nil {
		return err
	}
	tiles, _ := partition.Grid2D(n, n, tile, tile)
	at := func(i, j int) *taskrt.Handle { return hs[i*T+j] }
	dim := func(i int) int { return tiles[i*T+i].M }

	potrf, trsm, syrk, gemm := cholCodelets()
	var graph []*taskrt.Task
	for k := 0; k < T; k++ {
		age := T - k // steps remaining: earlier panels gate more work
		nk := dim(k)
		graph = append(graph, &taskrt.Task{
			Codelet:  potrf,
			Accesses: []taskrt.Access{taskrt.RW(at(k, k))},
			Flops:    blas.FlopsPOTRF(nk),
			Priority: 3*age + 2,
			Label:    fmt.Sprintf("POTRF[%d]", k),
		})
		for i := k + 1; i < T; i++ {
			graph = append(graph, &taskrt.Task{
				Codelet:  trsm,
				Accesses: []taskrt.Access{taskrt.R(at(k, k)), taskrt.RW(at(i, k))},
				Flops:    blas.FlopsTRSM(nk, dim(i)),
				Priority: 3*age + 1,
				Label:    fmt.Sprintf("TRSM[%d,%d]", i, k),
			})
		}
		for i := k + 1; i < T; i++ {
			mi := dim(i)
			graph = append(graph, &taskrt.Task{
				Codelet:  syrk,
				Accesses: []taskrt.Access{taskrt.R(at(i, k)), taskrt.RW(at(i, i))},
				Flops:    blas.FlopsSYRK(mi, nk),
				Priority: 3 * age,
				Label:    fmt.Sprintf("SYRK[%d,%d]", i, k),
			})
			for j := k + 1; j < i; j++ {
				graph = append(graph, &taskrt.Task{
					Codelet:  gemm,
					Accesses: []taskrt.Access{taskrt.R(at(i, k)), taskrt.R(at(j, k)), taskrt.RW(at(i, j))},
					Flops:    blas.FlopsGEMM(mi, dim(j), nk),
					Priority: 3 * age,
					Label:    fmt.Sprintf("GEMM[%d,%d,%d]", i, j, k),
				})
			}
		}
	}
	return rt.SubmitBatch(graph)
}

// SubmitTiledLU builds the right-looking tiled LU DAG (no pivoting) over
// the full n×n tile grid: GETRF on the diagonal, TRSM along the U row and
// the L column, GEMM across the trailing submatrix.
func SubmitTiledLU(rt *taskrt.Runtime, n, tile int, m *blas.Matrix) error {
	hs, T, err := factorHandles(rt, n, tile, m)
	if err != nil {
		return err
	}
	tiles, _ := partition.Grid2D(n, n, tile, tile)
	at := func(i, j int) *taskrt.Handle { return hs[i*T+j] }
	dim := func(i int) int { return tiles[i*T+i].M }

	getrf, trsmRow, trsmCol, gemm := luCodelets()
	var graph []*taskrt.Task
	for k := 0; k < T; k++ {
		age := T - k
		nk := dim(k)
		graph = append(graph, &taskrt.Task{
			Codelet:  getrf,
			Accesses: []taskrt.Access{taskrt.RW(at(k, k))},
			Flops:    blas.FlopsGETRF(nk),
			Priority: 3*age + 2,
			Label:    fmt.Sprintf("GETRF[%d]", k),
		})
		for j := k + 1; j < T; j++ {
			graph = append(graph, &taskrt.Task{
				Codelet:  trsmRow,
				Accesses: []taskrt.Access{taskrt.R(at(k, k)), taskrt.RW(at(k, j))},
				Flops:    blas.FlopsTRSM(nk, dim(j)),
				Priority: 3*age + 1,
				Label:    fmt.Sprintf("TRSM-U[%d,%d]", k, j),
			})
		}
		for i := k + 1; i < T; i++ {
			graph = append(graph, &taskrt.Task{
				Codelet:  trsmCol,
				Accesses: []taskrt.Access{taskrt.R(at(k, k)), taskrt.RW(at(i, k))},
				Flops:    blas.FlopsTRSM(nk, dim(i)),
				Priority: 3*age + 1,
				Label:    fmt.Sprintf("TRSM-L[%d,%d]", i, k),
			})
		}
		for i := k + 1; i < T; i++ {
			mi := dim(i)
			for j := k + 1; j < T; j++ {
				graph = append(graph, &taskrt.Task{
					Codelet:  gemm,
					Accesses: []taskrt.Access{taskrt.R(at(i, k)), taskrt.R(at(k, j)), taskrt.RW(at(i, j))},
					Flops:    blas.FlopsGEMM(mi, dim(j), nk),
					Priority: 3 * age,
					Label:    fmt.Sprintf("GEMM[%d,%d,%d]", i, j, k),
				})
			}
		}
	}
	return rt.SubmitBatch(graph)
}

// RealFactor runs one tiled factorization (kind "cholesky" or "lu") of a
// seeded n×n matrix in real mode on pl under the named scheduler, with
// models feeding dmda's placement (nil lets it self-calibrate). The result
// must match the serial reference factorization of the same matrix to 1e-9;
// the traced critical path comes back beside the report.
func RealFactor(kind string, pl *core.Platform, n, tile, workers int, sched string, models *perfmodel.Store) (*taskrt.Report, trace.CriticalPath, error) {
	var (
		m, ref *blas.Matrix
		submit func(*taskrt.Runtime, int, int, *blas.Matrix) error
		serial func(*blas.Matrix) error
	)
	switch kind {
	case "cholesky":
		m, ref = NewSPDMatrix(n, factorSeed), NewSPDMatrix(n, factorSeed)
		submit, serial = SubmitTiledCholesky, blas.Potrf
	case "lu":
		m, ref = NewDiagDominantMatrix(n, factorSeed), NewDiagDominantMatrix(n, factorSeed)
		submit, serial = SubmitTiledLU, blas.Getrf
	default:
		return nil, trace.CriticalPath{}, fmt.Errorf("experiments: unknown factorization %q", kind)
	}
	tr := trace.New()
	rt, err := taskrt.New(taskrt.Config{
		Platform: pl, Mode: taskrt.Real, Scheduler: sched,
		Workers: workers, Models: models, Trace: tr,
	})
	if err != nil {
		return nil, trace.CriticalPath{}, err
	}
	if err := submit(rt, n, tile, m); err != nil {
		return nil, trace.CriticalPath{}, err
	}
	rep, err := rt.Run()
	if err != nil {
		return nil, trace.CriticalPath{}, err
	}
	// Regions neither path touches compare exactly, factored regions to
	// rounding.
	if err := serial(ref); err != nil {
		return nil, trace.CriticalPath{}, fmt.Errorf("experiments: reference %s: %w", kind, err)
	}
	if d := blas.MaxDiff(m, ref); d > 1e-9 {
		return nil, trace.CriticalPath{}, fmt.Errorf("experiments: tiled %s diverges from reference by %g", kind, d)
	}
	return rep, tr.CriticalPath(), nil
}
