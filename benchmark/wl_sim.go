package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/discover"
	"repro/internal/experiments"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

var simFig5 = workload{
	name: "sim-fig5",
	why: "the paper's Figure 5 in virtual time (DGEMM n=8192, tile=256, dmda, three platform descriptions): the only " +
		"workload whose work is the sim engine; single-threaded, results repeat exactly",
	tailP: 0.50, nominalN: 12,
	setup: setupSimFig5,
}

// fig5Platforms are the three series of the figure, baseline first.
var fig5Platforms = []string{"xeon-1core", "xeon-cpu", "xeon-2gpu"}

type simRunner struct {
	w         workload
	n, tile   int
	platforms []*core.Platform
	// ref are the virtual-time reports of the set-up run; every later run
	// must reproduce them exactly.
	ref []*taskrt.Report
}

func setupSimFig5(w workload, p params) (runner, error) {
	r := &simRunner{w: w, n: 8192, tile: 256}
	if p.smoke {
		r.tile = 1024
	}
	for _, name := range fig5Platforms {
		pl, err := discover.Platform(name)
		if err != nil {
			return nil, err
		}
		r.platforms = append(r.platforms, pl)
	}
	var err error
	if r.ref, _, err = r.figure(nil, nil, 0); err != nil {
		return nil, err
	}
	one, cpu, gpu := r.ref[0].MakespanSeconds, r.ref[1].MakespanSeconds, r.ref[2].MakespanSeconds
	if !(gpu < cpu && cpu < one) {
		return nil, fmt.Errorf("figure 5 shape lost: makespans 1core=%g cpu=%g 2gpu=%g", one, cpu, gpu)
	}
	return r, nil
}

func (r *simRunner) close() {}

func (r *simRunner) tasksPerFigure() int {
	t := r.n / r.tile
	return len(r.platforms) * t * t * t
}

// figure simulates the DGEMM on the three platforms and returns the reports
// and the wall seconds. With newTrace set each simulation records into a
// trace of its own (the runtime is then built here, as SimDGEMM builds it).
func (r *simRunner) figure(newTrace func() *trace.Trace, sp *spanRecorder, op int) ([]*taskrt.Report, float64, error) {
	name := "figure5"
	if newTrace != nil {
		name += "+trace"
	}
	top := sp.begin(op, name, -1)
	defer sp.end(top)
	reps := make([]*taskrt.Report, 0, len(r.platforms))
	t0 := time.Now()
	for i, pl := range r.platforms {
		var (
			rep *taskrt.Report
			err error
		)
		if newTrace == nil {
			sp.timed(op, "experiments.SimDGEMM:"+fig5Platforms[i], top, func() {
				rep, err = experiments.SimDGEMM(pl, r.n, r.tile, "dmda")
			})
		} else {
			var rt *taskrt.Runtime
			sp.timed(op, "experiments.SubmitTiledGEMM:"+fig5Platforms[i], top, func() {
				rt, err = taskrt.New(taskrt.Config{Platform: pl, Mode: taskrt.Sim, Scheduler: "dmda", Trace: newTrace()})
				if err == nil {
					err = experiments.SubmitTiledGEMM(rt, r.n, r.tile, nil)
				}
			})
			if err == nil {
				sp.timed(op, "taskrt.Run(sim):"+fig5Platforms[i], top, func() { rep, err = rt.Run() })
			}
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", fig5Platforms[i], err)
		}
		reps = append(reps, rep)
	}
	wall := time.Since(t0).Seconds()
	for i, rep := range reps {
		if r.ref == nil {
			break
		}
		want := r.ref[i]
		if rep.MakespanSeconds != want.MakespanSeconds || rep.Tasks != want.Tasks ||
			rep.TransferBytes != want.TransferBytes || rep.TransferCount != want.TransferCount ||
			rep.TasksOnArch("gpu") != want.TasksOnArch("gpu") {
			return reps, wall, fmt.Errorf("%s: virtual-time result changed between runs: makespan %g, was %g",
				fig5Platforms[i], rep.MakespanSeconds, want.MakespanSeconds)
		}
	}
	return reps, wall, nil
}

func (r *simRunner) measure(d time.Duration, res *result) {
	lat := scaledReps(d, 1, res, func(i int) (float64, error) {
		_, wall, err := r.figure(nil, nil, i)
		return wall, err
	})
	latencyMetrics(res, r.w, lat, workRate(r.tasksPerFigure(), lat))
}

func (r *simRunner) layers(d time.Duration, sp *spanRecorder, res *result) {
	deadline := time.Now().Add(d)
	var plain, traced []float64
	events := 0
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		_, wall, err := r.figure(nil, sp, 2*i)
		res.op(err)
		if err == nil && i > 0 {
			plain = append(plain, wall)
		}
		var traces []*trace.Trace
		_, wall, err = r.figure(func() *trace.Trace {
			traces = append(traces, trace.New())
			return traces[len(traces)-1]
		}, sp, 2*i+1)
		res.op(err)
		if err == nil && i > 0 {
			traced = append(traced, wall)
			for _, tr := range traces {
				events += tr.Len()
			}
		}
	}
	gpu := r.ref[2]
	res.set("sim.tasks", float64(r.tasksPerFigure()))
	res.set("sim.transfers", float64(gpu.TransferCount))
	res.set("sim.transfer_mb", float64(gpu.TransferBytes)/1e6)
	res.set("sim.gpu_task_share", float64(gpu.TasksOnArch("gpu"))/float64(gpu.Tasks))
	res.set("sim.fig5_speedup_cpu", r.ref[1].Speedup(r.ref[0]))
	res.set("sim.fig5_speedup_2gpu", gpu.Speedup(r.ref[0]))
	res.timing("sim.wall_us_per_task", plain, 1e6/float64(r.tasksPerFigure()))
	res.set("trace.events", float64(events))
	if m := median(plain); m > 0 {
		res.set("trace.overhead_ratio", median(traced)/m)
	}
}
