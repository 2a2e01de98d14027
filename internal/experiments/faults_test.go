package experiments

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/discover"
	"repro/internal/taskrt"
)

func TestFaultToleranceDeterministicAndGraceful(t *testing.T) {
	var first string
	for i := 0; i < 3; i++ {
		res, err := FaultTolerance(1024, 256, 1)
		if err != nil {
			t.Fatal(err)
		}
		out := res.Table()
		if i == 0 {
			first = out
			continue
		}
		if out != first {
			t.Fatalf("run %d output differs:\n%s\n---\n%s", i, out, first)
		}
	}
	// The gpu-loss row must show retried tasks and both GPUs blacklisted.
	res, err := FaultTolerance(1024, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	var gpuLoss, clean, cpuOnly []string
	for _, row := range res.Rows {
		switch row[0] {
		case "gpu-loss":
			gpuLoss = row
		case "clean":
			clean = row
		case "cpu-only":
			cpuOnly = row
		}
	}
	if gpuLoss == nil || clean == nil || cpuOnly == nil {
		t.Fatalf("missing rows: %v", res.Rows)
	}
	if gpuLoss[4] == "0" {
		t.Fatalf("gpu-loss retried = %s, want > 0", gpuLoss[4])
	}
	if gpuLoss[5] != "2" {
		t.Fatalf("gpu-loss blacklisted = %s, want 2", gpuLoss[5])
	}
	// Graceful degradation: slower than clean, no slower than the CPU floor.
	var mClean, mLoss, mCPU float64
	if _, err := fmt.Sscanf(clean[2]+" "+gpuLoss[2]+" "+cpuOnly[2], "%f %f %f", &mClean, &mLoss, &mCPU); err != nil {
		t.Fatal(err)
	}
	if mLoss < mClean || mLoss > mCPU*1.05 {
		t.Fatalf("makespans clean=%.4f loss=%.4f cpu=%.4f: loss must sit between clean and the cpu-only floor", mClean, mLoss, mCPU)
	}
	if !strings.Contains(strings.Join(res.Notes, "\n"), "offline dev0") {
		t.Fatalf("tracker log missing from notes: %v", res.Notes)
	}
}

// Property (satellite 6): any seeded random fault plan that leaves worker0
// alone — i.e. at least one surviving CPU worker — still completes the
// real-mode tiled DGEMM and the result matches the serial reference.
func TestQuickRealDGEMMSurvivesRandomFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("real-mode property test")
	}
	const (
		n    = 256
		tile = 64
	)
	f := func(seed int64) bool {
		plan := taskrt.RandomFaultPlan(seed, []string{"worker1", "worker2"}, 0.05)
		pl := discover.MustPlatform("this-host")
		_, err := Run(taskrt.Config{
			Platform: pl,
			Mode:     taskrt.Real,
			Workers:  3,
			Faults:   plan,
			Retry:    taskrt.RetryPolicy{MaxAttempts: 10, TaskTimeout: 0.05},
		}, GEMM(n, tile, NewGemmMatrices(n, seed)))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
