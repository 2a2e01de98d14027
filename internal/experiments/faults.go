package experiments

import (
	"fmt"

	"repro/internal/discover"
	"repro/internal/dynamic"
	"repro/internal/taskrt"
)

// FaultTolerance is Ext-H: the Figure-5 DGEMM under in-flight GPU loss. Both
// GPUs of the xeon-2gpu platform are killed at 25% of the clean run's
// makespan; the runtime must retry the interrupted tiles on the CPU variant,
// blacklist the dead devices (mirrored into a dynamic.Tracker) and finish the
// computation — graceful degradation toward the CPU-only line instead of
// failure.
//
// The simulated rows are bit-for-bit deterministic for a fixed seed; the
// real-mode verification row runs a small DGEMM on this host with injected
// worker faults and checks the numerical result against the serial kernel,
// printing only deterministic cells (wall-clock times vary run to run).
func FaultTolerance(n, tile int, seed int64) (*Result, error) {
	if n <= 0 {
		n = 4096
	}
	if tile <= 0 {
		tile = 1024
	}
	if seed == 0 {
		seed = 1
	}

	g, err := GEMM(n, tile, nil).Graph()
	if err != nil {
		return nil, err
	}
	// Clean heterogeneous run: the baseline the faulty run degrades from.
	clean, err := simOn(g, "xeon-2gpu", "dmda")
	if err != nil {
		return nil, fmt.Errorf("clean run: %w", err)
	}

	// CPU-only run: the paper's "starpu" line, the floor graceful
	// degradation should approach when every GPU is gone.
	cpuOnly, err := simOn(g, "xeon-cpu", "dmda")
	if err != nil {
		return nil, fmt.Errorf("cpu-only run: %w", err)
	}

	// Faulty run: both GPUs die at 25% of the clean makespan, with the
	// blacklist mirrored into a dynamic platform tracker.
	crashAt := 0.25 * clean.MakespanSeconds
	faultPl, err := discover.Platform("xeon-2gpu")
	if err != nil {
		return nil, err
	}
	tracker, err := dynamic.NewTracker(faultPl)
	if err != nil {
		return nil, err
	}
	var trackerLog []string
	tracker.OnChange(func(e dynamic.Event) {
		trackerLog = append(trackerLog, fmt.Sprintf("v%d %s %s", e.Version, e.Kind, e.PU))
	})
	faulty, err := taskrt.Run(g, taskrt.Config{
		Platform:  faultPl,
		Mode:      taskrt.Sim,
		Scheduler: "dmda",
		Faults: &taskrt.FaultPlan{Seed: seed, Events: []taskrt.FaultEvent{
			{Unit: "dev0", AtTime: crashAt},
			{Unit: "dev1", AtTime: crashAt},
		}},
		Tracker: tracker,
	})
	if err != nil {
		return nil, fmt.Errorf("faulty run: %w", err)
	}

	// Real-mode verification: a small DGEMM on this host with injected
	// worker faults must still produce the correct product.
	if err := realFaultVerify(); err != nil {
		return nil, fmt.Errorf("experiments: real-mode fault verification failed: %w", err)
	}

	res := &Result{
		Name: fmt.Sprintf("Ext-H: fault tolerance, DGEMM %d tile %d (dmda, seed %d); both GPUs lost at 25%% progress (t=%.4fs)",
			n, tile, seed, crashAt),
		Headers: []string{"series", "platform", "makespan[s]", "vs-clean", "retried", "blacklisted", "gpu-tasks", "cpu-tasks"},
	}
	row := func(label, platform string, rep *taskrt.Report) {
		res.AddRow(label, platform, f4(rep.MakespanSeconds),
			f2(rep.MakespanSeconds/clean.MakespanSeconds),
			fmt.Sprint(rep.RetriedTasks), fmt.Sprint(rep.BlacklistedUnits()), onArch(rep, "gpu"), onArch(rep, "x86"))
	}
	row("clean", "xeon-2gpu", clean)
	row("gpu-loss", "xeon-2gpu", faulty)
	row("cpu-only", "xeon-cpu", cpuOnly)
	res.AddRow("real-verify", "this-host", "-", "-", "-", "-", "-", "-")

	res.Notes = append(res.Notes,
		fmt.Sprintf("degradation factor %.2fx vs clean; cpu-only floor is %.2fx — the run degrades gracefully instead of failing",
			faulty.MakespanSeconds/clean.MakespanSeconds, cpuOnly.MakespanSeconds/clean.MakespanSeconds),
		fmt.Sprintf("faulty run: %d failed attempts, %d tasks retried, blacklisted %v",
			faulty.FailedAttempts, faulty.RetriedTasks, faulty.Blacklisted),
		fmt.Sprintf("dynamic tracker observed: %v", trackerLog),
		fmt.Sprintf("real-verify: DGEMM %d tile %d with injected worker faults, result vs serial reference: ok", realVerifyN, realVerifyTile),
	)
	return res, nil
}

// Real-mode verification extents: big enough that the worker pool genuinely
// interleaves (each tile kernel runs for milliseconds), small enough to keep
// the serial reference check cheap.
const (
	realVerifyN    = 512
	realVerifyTile = 128
)

// realFaultVerify runs the real-mode leg of Ext-H: a tiled DGEMM on goroutine
// workers with one worker killed permanently and one transiently, verified
// against the serial kernel. Wall-clock behaviour is nondeterministic (the
// injected faults may not even fire if the surviving workers drain the queue
// first), so callers must not print measured numbers from this run.
func realFaultVerify() error {
	pl, err := discover.Platform("this-host")
	if err != nil {
		return err
	}
	_, err = Run(taskrt.Config{
		Platform: pl,
		Mode:     taskrt.Real,
		Workers:  4,
		Faults: &taskrt.FaultPlan{Events: []taskrt.FaultEvent{
			{Unit: "worker1", AfterTasks: 1},
			{Unit: "worker2", AfterTasks: 2, RecoverAfter: 0.01},
		}},
	}, GEMM(realVerifyN, realVerifyTile, NewGemmMatrices(realVerifyN, 42)))
	return err
}
