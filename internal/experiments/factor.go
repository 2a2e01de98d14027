package experiments

import (
	"time"

	"repro/internal/blas"
	"repro/internal/taskrt"
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
	potrf = factorCodelet("potrf", taskrt.Kernel1(blas.Potrf))
	trsm = factorCodelet("trsm_rlt", taskrt.Kernel2(blas.TrsmRLT))
	syrk = factorCodelet("syrk_nt", taskrt.Kernel2(blas.SyrkNT))
	gemm = factorCodelet("gemm_nt", taskrt.Kernel3(blas.GemmNT))
	return
}

// luCodelets returns the four tile operations of the right-looking tiled LU
// without pivoting.
func luCodelets() (getrf, trsmRow, trsmCol, gemm *taskrt.Codelet) {
	getrf = factorCodelet("getrf", taskrt.Kernel1(blas.Getrf))
	trsmRow = factorCodelet("trsm_llu", taskrt.Kernel2(blas.TrsmLLUnit))
	trsmCol = factorCodelet("trsm_ru", taskrt.Kernel2(blas.TrsmRU))
	gemm = factorCodelet("gemm_sub", taskrt.Kernel3(blas.GemmSub))
	return
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
	g, err := newTileGrid(n, tile)
	if err != nil {
		return err
	}
	hs, T, dim := g.handles(rt, "A", m), g.T, g.dim
	at := func(i, j int) *taskrt.Handle { return hs[i*T+j] }

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
			Label:    indexed("POTRF", k),
		})
		for i := k + 1; i < T; i++ {
			graph = append(graph, &taskrt.Task{
				Codelet:  trsm,
				Accesses: []taskrt.Access{taskrt.R(at(k, k)), taskrt.RW(at(i, k))},
				Flops:    blas.FlopsTRSM(nk, dim(i)),
				Priority: 3*age + 1,
				Label:    indexed("TRSM", i, k),
			})
		}
		for i := k + 1; i < T; i++ {
			mi := dim(i)
			graph = append(graph, &taskrt.Task{
				Codelet:  syrk,
				Accesses: []taskrt.Access{taskrt.R(at(i, k)), taskrt.RW(at(i, i))},
				Flops:    blas.FlopsSYRK(mi, nk),
				Priority: 3 * age,
				Label:    indexed("SYRK", i, k),
			})
			for j := k + 1; j < i; j++ {
				graph = append(graph, &taskrt.Task{
					Codelet:  gemm,
					Accesses: []taskrt.Access{taskrt.R(at(i, k)), taskrt.R(at(j, k)), taskrt.RW(at(i, j))},
					Flops:    blas.FlopsGEMM(mi, dim(j), nk),
					Priority: 3 * age,
					Label:    indexed("GEMM", i, j, k),
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
	g, err := newTileGrid(n, tile)
	if err != nil {
		return err
	}
	hs, T, dim := g.handles(rt, "A", m), g.T, g.dim
	at := func(i, j int) *taskrt.Handle { return hs[i*T+j] }

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
			Label:    indexed("GETRF", k),
		})
		for j := k + 1; j < T; j++ {
			graph = append(graph, &taskrt.Task{
				Codelet:  trsmRow,
				Accesses: []taskrt.Access{taskrt.R(at(k, k)), taskrt.RW(at(k, j))},
				Flops:    blas.FlopsTRSM(nk, dim(j)),
				Priority: 3*age + 1,
				Label:    indexed("TRSM-U", k, j),
			})
		}
		for i := k + 1; i < T; i++ {
			graph = append(graph, &taskrt.Task{
				Codelet:  trsmCol,
				Accesses: []taskrt.Access{taskrt.R(at(k, k)), taskrt.RW(at(i, k))},
				Flops:    blas.FlopsTRSM(nk, dim(i)),
				Priority: 3*age + 1,
				Label:    indexed("TRSM-L", i, k),
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
					Label:    indexed("GEMM", i, j, k),
				})
			}
		}
	}
	return rt.SubmitBatch(graph)
}
