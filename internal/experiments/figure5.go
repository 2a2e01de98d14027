package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/discover"
	"repro/internal/taskrt"
)

// Fig5Config parameterises the Figure 5 reproduction. The paper's setting is
// N=8192 double precision, a dual-socket quad-core Xeon X5550 and two Nvidia
// GPUs (GTX480 + GTX285), with StarPU as the runtime.
type Fig5Config struct {
	N         int    // matrix extent (default 8192)
	Tile      int    // tile extent (default 1024)
	Scheduler string // taskrt scheduler (default "dmda", StarPU's cost-model policy)
}

func (c *Fig5Config) defaults() {
	if c.N == 0 {
		c.N = 8192
	}
	if c.Tile == 0 {
		c.Tile = 1024
	}
	if c.Scheduler == "" {
		c.Scheduler = "dmda"
	}
}

// Fig5Series are the three bars of the paper's Figure 5.
var Fig5Series = []struct {
	Label    string // the paper's series name
	Platform string // catalog platform it runs on
}{
	{"single", "xeon-1core"},
	{"starpu", "xeon-cpu"},
	{"starpu+2gpu", "xeon-2gpu"},
}

// simOn runs g, built once for all the rows of a table, in virtual time on
// the named catalog platform.
func simOn(g *taskrt.Graph, platform, sched string) (*taskrt.Report, error) {
	pl, err := discover.Platform(platform)
	if err != nil {
		return nil, err
	}
	return taskrt.Run(g, taskrt.Config{Platform: pl, Mode: taskrt.Sim, Scheduler: sched})
}

// mb and onArch format the report cells most tables print: megabytes
// transferred and the tasks that ran on one architecture.
func mb(rep *taskrt.Report) string { return f2(float64(rep.TransferBytes) / (1 << 20)) }

func onArch(rep *taskrt.Report, arch string) string { return fmt.Sprint(rep.TasksOnArch(arch)) }

// Figure5 regenerates the paper's Figure 5: speedup of the translated DGEMM
// programs over the single-threaded input program. All three series run the
// same task graph; only the PDL platform description changes — which is the
// paper's headline claim ("both output programs were created using
// different PDL descriptions without modification of the serial input
// program").
func Figure5(cfg Fig5Config) (*Result, error) {
	cfg.defaults()
	res := &Result{
		Name:    fmt.Sprintf("Figure 5: DGEMM %dx%d speedup vs single-threaded input (tile %d, sched %s)", cfg.N, cfg.N, cfg.Tile, cfg.Scheduler),
		Headers: []string{"series", "platform", "makespan[s]", "speedup", "gpu-tasks", "transfers[MB]"},
	}
	g, err := GEMM(cfg.N, cfg.Tile, nil).Graph()
	if err != nil {
		return nil, err
	}
	var base *taskrt.Report
	for _, s := range Fig5Series {
		rep, err := simOn(g, s.Platform, cfg.Scheduler)
		if err != nil {
			return nil, fmt.Errorf("series %s: %w", s.Label, err)
		}
		if base == nil {
			base = rep
		}
		res.AddRow(s.Label, s.Platform, f4(rep.MakespanSeconds), f2(rep.Speedup(base)), onArch(rep, "gpu"), mb(rep))
	}
	res.Notes = append(res.Notes,
		"paper shape: starpu+2gpu > starpu > single = 1.0; absolute factors depend on calibration (see EXPERIMENTS.md)")
	return res, nil
}

// SchedulerSweep is ablation Ext-A: the same heterogeneous DGEMM under each
// scheduling policy.
func SchedulerSweep(n, tile int, scheds []string) (*Result, error) {
	if len(scheds) == 0 {
		scheds = []string{"ws", "dmda"}
	}
	res := &Result{
		Name:    fmt.Sprintf("Ext-A: scheduler comparison, DGEMM %d tile %d on xeon-2gpu", n, tile),
		Headers: []string{"scheduler", "makespan[s]", "gpu-tasks", "cpu-tasks", "transfers[MB]"},
	}
	g, err := GEMM(n, tile, nil).Graph()
	if err != nil {
		return nil, err
	}
	for _, s := range scheds {
		rep, err := simOn(g, "xeon-2gpu", s)
		if err != nil {
			return nil, err
		}
		res.AddRow(s, f4(rep.MakespanSeconds), onArch(rep, "gpu"), onArch(rep, "x86"), mb(rep))
	}
	return res, nil
}

// TileSweep is ablation Ext-B: granularity versus makespan.
func TileSweep(n int, tiles []int, sched string) (*Result, error) {
	if len(tiles) == 0 {
		tiles = []int{256, 512, 1024, 2048, 4096}
	}
	if sched == "" {
		sched = "dmda"
	}
	res := &Result{
		Name:    fmt.Sprintf("Ext-B: tile-size sweep, DGEMM %d on xeon-2gpu (%s)", n, sched),
		Headers: []string{"tile", "tasks", "makespan[s]", "transfers[MB]"},
	}
	for _, tile := range tiles {
		if tile > n {
			continue
		}
		g, err := GEMM(n, tile, nil).Graph()
		if err != nil {
			return nil, err
		}
		rep, err := simOn(g, "xeon-2gpu", sched)
		if err != nil {
			return nil, err
		}
		res.AddRow(fmt.Sprint(tile), fmt.Sprint(rep.Tasks), f4(rep.MakespanSeconds), mb(rep))
	}
	return res, nil
}

// BandwidthSweep is ablation Ext-C: how host↔device bandwidth moves the
// GPU advantage. Factors scale the PCIe BANDWIDTH property in the PDL
// document itself — the descriptor, not the code, defines the machine.
func BandwidthSweep(n, tile int, factors []float64) (*Result, error) {
	if len(factors) == 0 {
		factors = []float64{0.1, 0.25, 0.5, 1, 2, 4}
	}
	g, err := GEMM(n, tile, nil).Graph()
	if err != nil {
		return nil, err
	}
	cpuRep, err := simOn(g, "xeon-cpu", "dmda")
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:    fmt.Sprintf("Ext-C: PCIe bandwidth sweep, DGEMM %d tile %d (dmda); cpu-only baseline %.4fs", n, tile, cpuRep.MakespanSeconds),
		Headers: []string{"bw-factor", "bw[GB/s]", "makespan[s]", "speedup-vs-cpu", "gpu-tasks"},
	}
	for _, f := range factors {
		pl, err := discover.Platform("xeon-2gpu")
		if err != nil {
			return nil, err
		}
		if err := scalePCIeBandwidth(pl, f); err != nil {
			return nil, err
		}
		rep, err := taskrt.Run(g, taskrt.Config{Platform: pl, Mode: taskrt.Sim, Scheduler: "dmda"})
		if err != nil {
			return nil, err
		}
		res.AddRow(f2(f), f2(5*f), f4(rep.MakespanSeconds), f2(rep.Speedup(cpuRep)), onArch(rep, "gpu"))
	}
	res.Notes = append(res.Notes, "speedup-vs-cpu < 1 means the GPUs stopped paying off at that bandwidth")
	return res, nil
}

// scalePCIeBandwidth rewrites the BANDWIDTH properties of every PCIe link in
// the platform description.
func scalePCIeBandwidth(pl *core.Platform, factor float64) error {
	found := false
	var rewrite func(pu *core.PU)
	rewrite = func(pu *core.PU) {
		for i := range pu.Links {
			ic := &pu.Links[i]
			if ic.Type != core.ICTypePCIe {
				continue
			}
			bw, ok := ic.Descriptor.Float("BANDWIDTH")
			if !ok {
				continue
			}
			ic.Descriptor.Set(core.Property{
				Name: "BANDWIDTH", Value: fmt.Sprintf("%g", bw*factor), Unit: "GB/s", Fixed: true,
			})
			found = true
		}
		for _, c := range pu.Children {
			rewrite(c)
		}
	}
	for _, m := range pl.Masters {
		rewrite(m)
	}
	if !found {
		return fmt.Errorf("experiments: platform %q has no PCIe links to scale", pl.Name)
	}
	return nil
}

// Crossover is ablation Ext-D: the problem size at which the GPU platform
// overtakes the CPU platform.
func Crossover(sizes []int, tile int) (*Result, error) {
	if len(sizes) == 0 {
		sizes = []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	}
	res := &Result{
		Name:    "Ext-D: crossover, DGEMM cpu-only vs +2gpu (dmda)",
		Headers: []string{"N", "cpu[s]", "2gpu[s]", "winner"},
	}
	for _, n := range sizes {
		t := tile
		if t <= 0 || t > n {
			t = n
			if t > 1024 {
				t = 1024
			}
		}
		g, err := GEMM(n, t, nil).Graph()
		if err != nil {
			return nil, err
		}
		cpuRep, err := simOn(g, "xeon-cpu", "dmda")
		if err != nil {
			return nil, err
		}
		gpuRep, err := simOn(g, "xeon-2gpu", "dmda")
		if err != nil {
			return nil, err
		}
		winner := "cpu"
		if gpuRep.MakespanSeconds < cpuRep.MakespanSeconds {
			winner = "2gpu"
		}
		res.AddRow(fmt.Sprint(n), f4(cpuRep.MakespanSeconds), f4(gpuRep.MakespanSeconds), winner)
	}
	return res, nil
}

// RealCPUScaling is Ext-E: the CPU series of Figure 5 reproduced with real
// goroutine workers on this machine (no simulation).
func RealCPUScaling(n, tile int, workers []int) (*Result, error) {
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	res := &Result{
		Name:    fmt.Sprintf("Ext-E: real-mode CPU scaling, DGEMM %d tile %d on this host", n, tile),
		Headers: []string{"workers", "wall[s]", "speedup"},
	}
	pl, err := discover.Platform("this-host")
	if err != nil {
		return nil, err
	}
	var base float64
	for _, w := range workers {
		rep, err := Run(taskrt.Config{Platform: pl, Mode: taskrt.Real, Workers: w}, GEMM(n, tile, NewGemmMatrices(n, 42)))
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = rep.MakespanSeconds
		}
		res.AddRow(fmt.Sprint(w), f4(rep.MakespanSeconds), f2(base/rep.MakespanSeconds))
	}
	return res, nil
}
