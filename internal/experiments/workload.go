package experiments

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/taskrt"
)

// Workload is a task graph and the check of what it computed: the program
// of the paper's Figure 5, which stays the same while the taskrt.Config —
// and so the PDL platform description — it runs under varies.
type Workload struct {
	// Submit builds the graph into rt.
	Submit func(rt *taskrt.Runtime) error
	// Verify compares the operands the graph wrote with the serial kernel
	// applied to their values when the workload was built. It is nil for a
	// size-only graph (nil operands), which computes nothing.
	Verify func() error
}

// Run executes w under cfg — New, Submit, Run, Verify — and is the one way
// this package, its examples and its tests run a graph on a taskrt engine.
func Run(cfg taskrt.Config, w Workload) (*taskrt.Report, error) {
	rt, err := taskrt.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.Submit(rt); err != nil {
		return nil, err
	}
	rep, err := rt.Run()
	if err == nil && w.Verify != nil {
		err = w.Verify()
	}
	return rep, err
}

// within fails unless d ≤ tol; a NaN d fails.
func within(what string, d, tol float64) error {
	if !(d <= tol) {
		return fmt.Errorf("experiments: %s diverges from the serial reference by %g", what, d)
	}
	return nil
}

// GEMM is the tiled C += A·B of SubmitTiledGEMM, verified against the serial
// blocked kernel to 1e-8.
func GEMM(n, tile int, mats *GemmMatrices) Workload {
	w := Workload{Submit: func(rt *taskrt.Runtime) error { return SubmitTiledGEMM(rt, n, tile, mats) }}
	if mats != nil {
		c0 := mats.C.Clone()
		w.Verify = func() error {
			ref := c0.Clone()
			if err := blas.GemmBlocked(mats.A, mats.B, ref, blas.DefaultBlock); err != nil {
				return err
			}
			return within("tiled DGEMM", blas.MaxDiff(ref, mats.C), 1e-8)
		}
	}
	return w
}

// Factor is the tiled factorization of m in place, kind "cholesky"
// (SubmitTiledCholesky) or "lu" (SubmitTiledLU), verified against the serial
// factorization of the same matrix to 1e-9: regions neither path touches
// compare exactly, factored regions to rounding.
func Factor(kind string, n, tile int, m *blas.Matrix) (Workload, error) {
	var (
		submit func(*taskrt.Runtime, int, int, *blas.Matrix) error
		serial func(*blas.Matrix) error
	)
	switch kind {
	case "cholesky":
		submit, serial = SubmitTiledCholesky, blas.Potrf
	case "lu":
		submit, serial = SubmitTiledLU, blas.Getrf
	default:
		return Workload{}, fmt.Errorf("experiments: unknown factorization %q", kind)
	}
	w := Workload{Submit: func(rt *taskrt.Runtime) error { return submit(rt, n, tile, m) }}
	if m != nil {
		m0 := m.Clone()
		w.Verify = func() error {
			ref := m0.Clone()
			if err := serial(ref); err != nil {
				return fmt.Errorf("experiments: reference %s: %w", kind, err)
			}
			return within("tiled "+kind, blas.MaxDiff(m, ref), 1e-9)
		}
	}
	return w, nil
}

// Stencil is the Jacobi sweep of SubmitStencil, verified point by point
// against the serial sweep to 1e-12.
func Stencil(n, chunks, iters int, bufs *StencilBuffers) Workload {
	w := Workload{Submit: func(rt *taskrt.Runtime) error { return SubmitStencil(rt, n, chunks, iters, bufs) }}
	if bufs != nil {
		u0 := append([]float64(nil), bufs.A...)
		w.Verify = func() error {
			ref, got := serialJacobi(u0, iters), bufs.Final(iters)
			for i := range ref {
				// Negated so a NaN difference fails.
				if !(math.Abs(got[i]-ref[i]) <= 1e-12) {
					return fmt.Errorf("experiments: stencil diverges at %d: %g vs %g", i, got[i], ref[i])
				}
			}
			return nil
		}
	}
	return w
}
