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

	"repro/internal/discover"
	"repro/internal/experiments"
)

func main() {
	n := flag.Int("n", 8192, "matrix extent")
	tile := flag.Int("tile", 1024, "tile extent")
	sched := flag.String("sched", "dmda", "scheduler (sim: any policy; the real-mode cross-check runs dmda as dmda and everything else as ws)")
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
	// causal spans and writes a Perfetto-loadable Chrome trace.
	fmt.Println()
	if *traceTo != "" {
		tr, rep, err := experiments.TraceGemmRun(256, 64, 0, true, *sched)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteChromeFile(*traceTo); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("real-mode cross-check (N=256): %d tasks in %.4fs, result verified\n",
			rep.Tasks, rep.MakespanSeconds)
		fmt.Printf("wrote %s (%d events; load in https://ui.perfetto.dev)\n", *traceTo, tr.Len())
		return
	}
	host := discover.MustPlatform("this-host")
	rep, err := experiments.RealDGEMM(host, 256, 64, 0, true, *sched, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("real-mode cross-check (N=256): %d tasks in %.4fs, result verified\n",
		rep.Tasks, rep.MakespanSeconds)
}
