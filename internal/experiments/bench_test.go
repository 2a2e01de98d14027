package experiments

import (
	"testing"

	"repro/internal/discover"
	"repro/internal/taskrt"
)

// BenchmarkSimFigure5 times one series of the simulated Figure 5 (DGEMM
// n = 8192, tile 256, dmda) by layer: Build is taskrt.New plus
// SubmitTiledGEMM, Run is Runtime.Run on the built graph. Each reports µs per
// task beside allocations per op, so a change to the sim says which of the two
// it moved. `make bench-sim` runs it.
func BenchmarkSimFigure5(b *testing.B) {
	const n, tile = 8192, 256
	perTask := func(b *testing.B, tasks int) {
		b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*tasks), "µs/task")
	}
	for _, s := range Fig5Series {
		pl := discover.MustPlatform(s.Platform)
		build := func(b *testing.B) *taskrt.Runtime {
			rt, err := taskrt.New(taskrt.Config{Platform: pl, Mode: taskrt.Sim, Scheduler: "dmda"})
			if err == nil {
				err = SubmitTiledGEMM(rt, n, tile, nil)
			}
			if err != nil {
				b.Fatal(err)
			}
			return rt
		}
		b.Run("Build/"+s.Platform, func(b *testing.B) {
			b.ReportAllocs()
			tasks := 0
			for i := 0; i < b.N; i++ {
				tasks = build(b).Tasks()
			}
			perTask(b, tasks)
		})
		b.Run("Run/"+s.Platform, func(b *testing.B) {
			b.ReportAllocs()
			tasks := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rt := build(b)
				b.StartTimer()
				if _, err := rt.Run(); err != nil {
					b.Fatal(err)
				}
				tasks = rt.Tasks()
			}
			perTask(b, tasks)
		})
	}
}
