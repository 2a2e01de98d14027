// Dgemm reproduces the paper's case study (Section IV-D, Figure 5): a serial
// DGEMM program is translated for three different PDL platform descriptions
// without modifying the input program, and the resulting task graphs execute
// on the simulated evaluation testbed (dual Xeon X5550 + GTX480 + GTX285).
// A small real-mode run on this machine cross-checks the numerics.
//
// Run with:
//
//	go run ./examples/dgemm            # paper-size simulation (N=8192)
//	go run ./examples/dgemm -n 2048    # faster
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"

	"repro/internal/blas"
	"repro/internal/discover"
	"repro/internal/experiments"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

func main() {
	n := flag.Int("n", 8192, "matrix extent")
	tile := flag.Int("tile", 1024, "tile extent")
	sched := flag.String("sched", "dmda", "scheduler of the simulation and the real-mode cross-check: ws or dmda")
	traceTo := flag.String("trace", "", "write a Chrome trace of the real-mode cross-check here")
	flag.Parse()

	// Figure 5: same input program, three PDL descriptors.
	res, err := experiments.Figure5(experiments.Fig5Config{N: *n, Tile: *tile, Scheduler: *sched})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Table())

	// Real-mode cross-check on this host: the tiled task graph computes the
	// same result as the serial blocked kernel. With -trace, the run records
	// causal spans and writes a Perfetto-loadable Chrome trace annotated with
	// the dispatcher, the GEMM micro-kernel ISA and the problem size.
	fmt.Println()
	const realN, realTile = 256, 64
	cfg := taskrt.Config{Platform: discover.MustPlatform("this-host"), Mode: taskrt.Real, Scheduler: *sched}
	if *traceTo != "" {
		cfg.Trace = trace.New()
	}
	rep, err := experiments.Run(cfg, experiments.GEMM(realN, realTile, experiments.NewGemmMatrices(realN, 42)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("real-mode cross-check (N=%d): %d tasks in %.4fs, result verified\n",
		realN, rep.Tasks, rep.MakespanSeconds)
	if tr := cfg.Trace; tr != nil {
		tr.SetMeta("dispatcher", rep.Scheduler)
		tr.SetMeta("microkernel", blas.KernelISA())
		tr.SetMeta("n", strconv.Itoa(realN))
		tr.SetMeta("tile", strconv.Itoa(realTile))
		if err := tr.WriteFile(*traceTo, trace.FormatChrome); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d events; load in https://ui.perfetto.dev)\n", *traceTo, tr.Len())
	}
}
