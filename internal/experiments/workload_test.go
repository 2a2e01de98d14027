package experiments

import (
	"math"
	"testing"

	"repro/internal/discover"
	"repro/internal/taskrt"
)

// Every workload verifies after a real run, and its Verify catches one
// poisoned output element — a NaN (which compares false with every
// tolerance) and a finite offset well above the tolerance alike.
func TestWorkloadVerifyCatchesPoisonedOutput(t *testing.T) {
	const n, tile = 128, 32
	mats := NewGemmMatrices(n, 42)
	chol, lu := factorMatrix("cholesky", n), factorMatrix("lu", n)
	bufs := NewStencilBuffers(4096)
	for _, c := range []struct {
		name string
		w    Workload
		out  *float64 // one element the graph writes
	}{
		{"gemm", GEMM(n, tile, mats), &mats.C.Data[n+1]},
		{"cholesky", mustFactor(t, "cholesky", n, tile, chol), &chol.Data[(n-1)*n+1]},
		{"lu", mustFactor(t, "lu", n, tile, lu), &lu.Data[n+1]},
		{"stencil", Stencil(4096, 8, 6, bufs), &bufs.Final(6)[17]},
	} {
		cfg := taskrt.Config{Platform: discover.MustPlatform("this-host"), Mode: taskrt.Real, Workers: 2}
		if _, err := Run(cfg, c.w); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		good := *c.out
		for _, bad := range []float64{math.NaN(), good + 1e-6} {
			*c.out = bad
			if err := c.w.Verify(); err == nil {
				t.Errorf("%s: Verify accepted output element %g in place of %g", c.name, bad, good)
			}
		}
		*c.out = good
		if err := c.w.Verify(); err != nil {
			t.Errorf("%s: Verify fails on the restored output: %v", c.name, err)
		}
	}
}

func TestSizeOnlyWorkloadsHaveNoVerify(t *testing.T) {
	if GEMM(64, 32, nil).Verify != nil || mustFactor(t, "lu", 64, 32, nil).Verify != nil || Stencil(64, 4, 2, nil).Verify != nil {
		t.Fatal("a size-only graph computes nothing to verify")
	}
}

func TestFactorUnknownKind(t *testing.T) {
	if _, err := Factor("qr", 64, 32, nil); err == nil {
		t.Fatal("unknown factorization kind must fail")
	}
}
