// Command pdlbench prints the evaluation tables: the paper's Figure 5 and
// the experiments Ext-A..Ext-H and Ext-J documented in DESIGN.md, with the
// same rows the paper (or EXPERIMENTS.md) reports. It measures nothing for
// keeps: performance numbers are written, stored and compared by
// benchmark/ (bash benchmark/run.sh) alone.
//
// Usage:
//
//	pdlbench -exp NAME [-n 8192] [-tile 1024] [-sched dmda] [-realn 768] [-seed 1]
//	pdlbench -exp cluster [-nodes URL,URL | -inprocess 2] [-trace out.json]
//	pdlbench -exp all
//
// pdlbench -h lists the experiment names; they come from one table below.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pdlbench:", err)
		os.Exit(1)
	}
}

// options holds the flag values an experiment reads.
type options struct {
	n, tile int // as parsed: Figure 5's defaults when the user gave none
	// setN and setTile are n and tile as typed, 0 when not given, for the
	// experiments whose own defaults differ from Figure 5's.
	setN, setTile int
	sched         string
	realN         int
	seed          int64
	traceTo       string
	nodes         string
	inProcess     int
	stdout        io.Writer
}

// experimentTable is the one list of experiments: the -exp help string, the
// "all" sweep and the dispatch all read it.
var experimentTable = []struct {
	name string
	run  func(o *options) (*experiments.Result, error)
}{
	{"fig5", func(o *options) (*experiments.Result, error) {
		return experiments.Figure5(experiments.Fig5Config{N: o.n, Tile: o.tile, Scheduler: o.sched})
	}},
	{"sched", func(o *options) (*experiments.Result, error) {
		return experiments.SchedulerSweep(o.n, o.tile, nil)
	}},
	{"tiles", func(o *options) (*experiments.Result, error) {
		return experiments.TileSweep(o.n, nil, o.sched)
	}},
	{"bw", func(o *options) (*experiments.Result, error) {
		return experiments.BandwidthSweep(o.n, o.tile, nil)
	}},
	{"crossover", func(o *options) (*experiments.Result, error) {
		return experiments.Crossover(nil, o.tile)
	}},
	{"failover", func(o *options) (*experiments.Result, error) {
		return experiments.DynamicFailover(o.n, o.tile)
	}},
	{"stencil", func(*options) (*experiments.Result, error) {
		return experiments.StencilSweep(1<<24, 64, 32)
	}},
	{"realcpu", func(o *options) (*experiments.Result, error) {
		return experiments.RealCPUScaling(o.realN, o.realN/4, nil)
	}},
	// Ext-H defaults to N=4096 and Ext-J to 512/128, not Figure 5's 8192/1024.
	{"faults", func(o *options) (*experiments.Result, error) {
		return experiments.FaultTolerance(o.setN, o.setTile, o.seed)
	}},
	{"cluster", runCluster},
}

func experimentNames() string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

// runCluster is Ext-J. With -trace it writes the merged fleet timeline.
func runCluster(o *options) (*experiments.Result, error) {
	var addrs []string
	for _, a := range strings.Split(o.nodes, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	var tr *trace.Trace
	if o.traceTo != "" {
		tr = trace.New()
	}
	res, err := experiments.ClusterDGEMM(experiments.ClusterConfig{
		N: o.setN, Tile: o.setTile, Nodes: addrs, InProcess: o.inProcess, Trace: tr,
	})
	if err != nil || tr == nil {
		return res, err
	}
	// Prefer the published merged timeline: master placement instants plus
	// every node's kernel spans on one time base.
	if merged := trace.Published(); merged != nil {
		tr = merged
	}
	if err := tr.WriteFile(o.traceTo, trace.FormatChrome); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.stdout, "wrote %s (%d events; load in https://ui.perfetto.dev)\n", o.traceTo, tr.Len())
	return res, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdlbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	o := options{stdout: stdout}
	exp := fs.String("exp", "fig5", "experiment: "+experimentNames()+" or all")
	fs.IntVar(&o.n, "n", 8192, "matrix extent (faults defaults to 4096, cluster to 512)")
	fs.IntVar(&o.tile, "tile", 1024, "tile extent (cluster defaults to 128)")
	fs.StringVar(&o.sched, "sched", "dmda", "scheduler for fig5/tiles: ws or dmda")
	fs.IntVar(&o.realN, "realn", 768, "matrix extent for the real-mode experiment")
	fs.Int64Var(&o.seed, "seed", 1, "fault-plan seed for the faults experiment")
	fs.StringVar(&o.traceTo, "trace", "", "cluster only: write the merged Chrome trace here (open in Perfetto)")
	fs.StringVar(&o.nodes, "nodes", "", "cluster only: comma-separated pdlworkerd base URLs (empty = spawn loopback workers)")
	fs.IntVar(&o.inProcess, "inprocess", 2, "cluster only: loopback worker count when -nodes is empty")
	pprofOn := fs.String("pprof", "", "serve /debug/pprof, /debug/trace and /metrics on this address while the harness runs ('' = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "n":
			o.setN = o.n
		case "tile":
			o.setTile = o.tile
		}
	})
	// Pin GOMAXPROCS explicitly: inherited settings (cgroup shims, test
	// runners) silently skewed earlier real-mode runs.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *pprofOn != "" {
		// The master-side observability surface: the live merged cluster
		// trace (for -exp cluster), process metrics and pprof, so a long
		// harness run can be watched and profiled while it executes.
		ln, err := net.Listen("tcp", *pprofOn)
		if err != nil {
			return err
		}
		defer ln.Close()
		go http.Serve(ln, cluster.DebugHandler())
		fmt.Fprintf(stdout, "observability: http://%s (/debug/trace, /metrics, /debug/pprof/)\n", ln.Addr())
	}
	ran := false
	for _, e := range experimentTable {
		if *exp != "all" && *exp != e.name {
			continue
		}
		res, err := e.run(&o)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.Table())
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (have %s, all)", *exp, experimentNames())
	}
	return nil
}
