// Failover demonstrates the paper's future-work direction (Section VI):
// platform descriptors that track dynamically changing resources and feed
// highly dynamic schedulers. The evaluation testbed loses both GPUs while a
// DGEMM is in flight: the runtime detects the failures, retries the
// interrupted tiles on the CPU implementation variant, blacklists the dead
// devices into the tracked PDL description and completes the run — graceful
// degradation instead of failure.
//
// Run with:
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"

	"repro/internal/discover"
	"repro/internal/dynamic"
	"repro/internal/experiments"
	"repro/internal/pattern"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

const (
	n    = 2048
	tile = 512
)

// simRun plans and executes the tiled DGEMM once in simulation.
func simRun(pl *dynamic.Tracker, faults *taskrt.FaultPlan, tr *trace.Trace) *taskrt.Report {
	snap, err := pl.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := experiments.Run(taskrt.Config{
		Platform: snap, Mode: taskrt.Sim, Scheduler: "dmda",
		Faults: faults, Tracker: pl, Trace: tr,
	}, experiments.GEMM(n, tile, nil))
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

func main() {
	platform := discover.MustPlatform("xeon-2gpu")
	tracker, err := dynamic.NewTracker(platform)
	if err != nil {
		log.Fatal(err)
	}
	tracker.OnChange(func(e dynamic.Event) {
		fmt.Printf("descriptor event v%d: %s %s\n", e.Version, e.Kind, e.PU)
	})

	// Clean run: the baseline.
	clean := simRun(tracker, nil, nil)
	fmt.Printf("[clean]    makespan %.4fs, gpu tasks %d, cpu tasks %d\n\n",
		clean.MakespanSeconds, clean.TasksOnArch("gpu"), clean.TasksOnArch("x86"))

	// In-flight failure: both GPUs die at 25% of the clean makespan, while
	// tasks are running on them. The runtime retries the interrupted tiles on
	// the x86 variant (their data recovered from the host memory node), takes
	// the devices out of scheduling and mirrors that into the tracked
	// descriptor via SetOffline.
	crashAt := 0.25 * clean.MakespanSeconds
	fmt.Printf("injecting: dev0 and dev1 crash at t=%.4fs (25%% of clean run)\n", crashAt)
	tr := trace.New()
	faulty := simRun(tracker, &taskrt.FaultPlan{Events: []taskrt.FaultEvent{
		{Unit: "dev0", AtTime: crashAt},
		{Unit: "dev1", AtTime: crashAt},
	}}, tr)
	fmt.Printf("[gpu-loss] makespan %.4fs, gpu tasks %d, cpu tasks %d\n",
		faulty.MakespanSeconds, faulty.TasksOnArch("gpu"), faulty.TasksOnArch("x86"))
	fmt.Printf("           failed attempts %d, retried tasks %d, blacklisted %v\n",
		faulty.FailedAttempts, faulty.RetriedTasks, faulty.Blacklisted)
	fmt.Printf("           degradation factor %.2fx\n\n", faulty.MakespanSeconds/clean.MakespanSeconds)
	fmt.Print(tr.Gantt(64))
	fmt.Println()

	// The tracked descriptor now reflects the degraded machine: re-planning
	// against a snapshot sees a CPU-only platform, and the logical views the
	// machine still supports shrink accordingly.
	snap, err := tracker.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	views, err := pattern.Views(snap)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(views))
	for _, v := range views {
		names = append(names, v.Name)
	}
	fmt.Printf("degraded descriptor: %d unit(s) offline, logical views %v\n",
		len(tracker.OfflineUnits()), names)

	// The operator replaces the card: the descriptor re-admits it (filling a
	// property a runtime just measured — the paper's "later instantiation"
	// workflow) and the next run uses the GPU again.
	if err := tracker.FillProperty("dev1", "DRIVER_VERSION", "263.06"); err != nil {
		log.Fatal(err)
	}
	if err := tracker.SetOnline("dev1"); err != nil {
		log.Fatal(err)
	}
	if err := tracker.SetOnline("dev0"); err != nil {
		log.Fatal(err)
	}
	recovered := simRun(tracker, nil, nil)
	fmt.Printf("[recovered] makespan %.4fs, gpu tasks %d — back to %.2fx of clean\n",
		recovered.MakespanSeconds, recovered.TasksOnArch("gpu"),
		recovered.MakespanSeconds/clean.MakespanSeconds)
}
