package experiments

import (
	"testing"

	"repro/internal/discover"
	"repro/internal/taskrt"
)

// BenchmarkSimFigure5 times the simulated Figure 5 (DGEMM n = 8192, tile 256,
// dmda) by layer: Build/<platform> is taskrt.New plus SubmitTiledGEMM, and
// Run/<platform> is taskrt.Run of a graph built once. Figure/three-builds is
// the whole figure with one build per series, Figure/one-build the same three
// runs of a single build. Each reports µs per task run beside allocations per
// op, so a change to the sim says which layer it moved. `make bench-sim` runs
// it.
func BenchmarkSimFigure5(b *testing.B) {
	const n, tile = 8192, 256
	perTask := func(b *testing.B, tasks int) {
		b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*tasks), "µs/task")
	}
	cfgs := make([]taskrt.Config, len(Fig5Series))
	for i, s := range Fig5Series {
		cfgs[i] = taskrt.Config{Platform: discover.MustPlatform(s.Platform), Mode: taskrt.Sim, Scheduler: "dmda"}
	}
	build := func(b *testing.B, cfg taskrt.Config) *taskrt.Runtime {
		rt, err := taskrt.New(cfg)
		if err == nil {
			err = SubmitTiledGEMM(rt, n, tile, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		return rt
	}
	run := func(b *testing.B, g *taskrt.Graph, cfg taskrt.Config) {
		if _, err := taskrt.Run(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
	for i, s := range Fig5Series {
		b.Run("Build/"+s.Platform, func(b *testing.B) {
			b.ReportAllocs()
			tasks := 0
			for j := 0; j < b.N; j++ {
				tasks = build(b, cfgs[i]).Tasks()
			}
			perTask(b, tasks)
		})
		b.Run("Run/"+s.Platform, func(b *testing.B) {
			g := build(b, cfgs[i]).Graph()
			b.ReportAllocs()
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				run(b, g, cfgs[i])
			}
			perTask(b, len(g.Tasks()))
		})
	}
	b.Run("Figure/three-builds", func(b *testing.B) {
		b.ReportAllocs()
		tasks := 0
		for j := 0; j < b.N; j++ {
			tasks = 0
			for _, cfg := range cfgs {
				rt := build(b, cfg)
				if _, err := rt.Run(); err != nil {
					b.Fatal(err)
				}
				tasks += rt.Tasks()
			}
		}
		perTask(b, tasks)
	})
	b.Run("Figure/one-build", func(b *testing.B) {
		b.ReportAllocs()
		tasks := 0
		for j := 0; j < b.N; j++ {
			g, err := GEMM(n, tile, nil).Graph()
			if err != nil {
				b.Fatal(err)
			}
			for _, cfg := range cfgs {
				run(b, g, cfg)
			}
			tasks = len(cfgs) * len(g.Tasks())
		}
		perTask(b, tasks)
	})
}
