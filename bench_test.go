package repro

// The benchmark harness regenerates the paper's evaluation. One benchmark
// per figure/series plus the ablation experiments of DESIGN.md:
//
//	BenchmarkFigure5/*        — the paper's Figure 5 (three series)
//	BenchmarkSchedulers/*     — Ext-A scheduler ablation
//	BenchmarkTileSweep/*      — Ext-B granularity ablation
//	BenchmarkBandwidthSweep/* — Ext-C PCIe bandwidth ablation
//	BenchmarkCrossover/*      — Ext-D problem-size crossover
//	BenchmarkRealCPUScaling/* — Ext-E real-mode CPU scaling on this host
//	BenchmarkFaultTolerance   — Ext-H in-flight GPU loss and recovery
//	BenchmarkGemmKernels/*    — the raw BLAS substrate
//	BenchmarkToolchain/*      — PDL codec / query / mapping / translation costs
//
// Simulated benchmarks report the virtual makespan as the custom metric
// "sim_s/run" next to the usual wall-clock ns/op (which measures the cost of
// running the simulation itself).

import (
	"fmt"
	"io"
	"net/http/httptest"
	"testing"

	"repro/internal/blas"
	"repro/internal/csrc"
	"repro/internal/discover"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/pdlxml"
	"repro/internal/query"
	"repro/internal/registry"
	"repro/internal/repo"
	"repro/internal/server"
)

// benchN is the default simulated problem size. The paper uses N=8192; the
// simulation of that size costs a few hundred ms per run, so benchmarks use
// 2048 by default and the full size remains available via cmd/pdlbench.
const (
	benchN    = 2048
	benchTile = 512
)

func BenchmarkFigure5(b *testing.B) {
	for _, series := range experiments.Fig5Series {
		b.Run(series.Label, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				pl := discover.MustPlatform(series.Platform)
				rep, err := experiments.SimDGEMM(pl, benchN, benchTile, "dmda")
				if err != nil {
					b.Fatal(err)
				}
				makespan = rep.MakespanSeconds
			}
			b.ReportMetric(makespan, "sim_s/run")
		})
	}
}

func BenchmarkSchedulers(b *testing.B) {
	for _, sched := range []string{"eager", "dmda", "heft", "random"} {
		b.Run(sched, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				pl := discover.MustPlatform("xeon-2gpu")
				rep, err := experiments.SimDGEMM(pl, benchN, benchTile, sched)
				if err != nil {
					b.Fatal(err)
				}
				makespan = rep.MakespanSeconds
			}
			b.ReportMetric(makespan, "sim_s/run")
		})
	}
}

func BenchmarkTileSweep(b *testing.B) {
	for _, tile := range []int{256, 512, 1024} {
		b.Run(fmt.Sprint(tile), func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				pl := discover.MustPlatform("xeon-2gpu")
				rep, err := experiments.SimDGEMM(pl, benchN, tile, "dmda")
				if err != nil {
					b.Fatal(err)
				}
				makespan = rep.MakespanSeconds
			}
			b.ReportMetric(makespan, "sim_s/run")
		})
	}
}

func BenchmarkBandwidthSweep(b *testing.B) {
	for _, factor := range []float64{0.25, 1, 4} {
		b.Run(fmt.Sprintf("%gx", factor), func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.BandwidthSweep(benchN, benchTile, []float64{factor})
				if err != nil {
					b.Fatal(err)
				}
				fmt.Sscanf(res.Rows[0][2], "%f", &makespan)
			}
			b.ReportMetric(makespan, "sim_s/run")
		})
	}
}

func BenchmarkCrossover(b *testing.B) {
	for _, n := range []int{512, 2048, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Crossover([]int{n}, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DynamicFailover(benchN, benchTile); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultTolerance(b *testing.B) {
	var degradation float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.FaultTolerance(benchN, benchTile, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row[0] == "gpu-loss" {
				fmt.Sscanf(row[3], "%f", &degradation)
			}
		}
	}
	b.ReportMetric(degradation, "degradation_x")
}

func BenchmarkStencil(b *testing.B) {
	for _, platform := range []string{"xeon-cpu", "xeon-2gpu"} {
		b.Run(platform, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				pl := discover.MustPlatform(platform)
				rep, err := experiments.SimStencil(pl, 1<<22, 32, 16, "dmda")
				if err != nil {
					b.Fatal(err)
				}
				makespan = rep.MakespanSeconds
			}
			b.ReportMetric(makespan, "sim_s/run")
		})
	}
}

func BenchmarkRealCPUScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprint(workers), func(b *testing.B) {
			pl := discover.MustPlatform("this-host")
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RealDGEMM(pl, 384, 96, workers, false, "", nil); err != nil {
					b.Fatal(err)
				}
			}
			flops := blas.FlopsGEMM(384, 384, 384)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkGemmKernels(b *testing.B) {
	const n = 256
	a, bb := blas.NewMatrix(n, n), blas.NewMatrix(n, n)
	a.FillRandom(1)
	bb.FillRandom(2)
	kernels := map[string]func(c *blas.Matrix) error{
		"naive":           func(c *blas.Matrix) error { return blas.GemmNaive(a, bb, c) },
		"blocked":         func(c *blas.Matrix) error { return blas.GemmBlocked(a, bb, c, blas.DefaultBlock) },
		"packed":          func(c *blas.Matrix) error { return blas.GemmPacked(a, bb, c, blas.DefaultBlock) },
		"packed-parallel": func(c *blas.Matrix) error { return blas.GemmPackedParallel(a, bb, c, blas.DefaultBlock, 4) },
		"parallel":        func(c *blas.Matrix) error { return blas.GemmParallel(a, bb, c, blas.DefaultBlock, 0) },
	}
	for _, name := range []string{"naive", "blocked", "packed", "packed-parallel", "parallel"} {
		b.Run(name, func(b *testing.B) {
			run := kernels[name]
			c := blas.NewMatrix(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(blas.FlopsGEMM(n, n, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

const benchProgram = `#pragma cascabel task : x86
 : Ivecadd
 : vecadd01
 : (A:readwrite, B:read)
void vector_add(double *A, double *B) { }
int main() {
#pragma cascabel execute Ivecadd (A:BLOCK:N, B:BLOCK:N)
vector_add(A, B);
}
`

func BenchmarkToolchain(b *testing.B) {
	b.Run("pdl-roundtrip", func(b *testing.B) {
		pl := discover.MustPlatform("xeon-2gpu")
		for i := 0; i < b.N; i++ {
			data, err := pdlxml.Marshal(pl)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pdlxml.Unmarshal(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query-selector", func(b *testing.B) {
		pl := discover.MustPlatform("xeon-2gpu")
		for i := 0; i < b.N; i++ {
			if _, err := query.Select(pl, "//Worker[ARCHITECTURE=gpu]"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("preselect", func(b *testing.B) {
		r := repo.NewWithLibrary()
		pl := discover.MustPlatform("xeon-2gpu")
		for i := 0; i < b.N; i++ {
			if _, err := mapping.Preselect(r, repo.IfaceDGEMM, pl); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("translate", func(b *testing.B) {
		pl := discover.MustPlatform("xeon-2gpu")
		for i := 0; i < b.N; i++ {
			prog, err := csrc.ParseProgram(benchProgram)
			if err != nil {
				b.Fatal(err)
			}
			r := repo.NewWithLibrary()
			if err := r.RegisterProgram(prog, repo.DefaultKernels()); err != nil {
				b.Fatal(err)
			}
			if _, err := mapping.PlanProgram(prog, r, pl); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServerQuery measures the pdlserved HTTP query path in-process
// (httptest): the cached series hits the registry's LRU of compiled query
// results, the uncached series disables it, so the gap between the two is
// the cache's contribution to the serving hot path.
func BenchmarkServerQuery(b *testing.B) {
	doc, err := pdlxml.Marshal(discover.MustPlatform("xeon-2gpu"))
	if err != nil {
		b.Fatal(err)
	}
	bench := func(b *testing.B, cacheSize int) {
		reg := registry.New(registry.WithCacheSize(cacheSize))
		if _, _, err := reg.Put("xeon-2gpu", doc); err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(server.New(server.Config{Registry: reg}).Handler())
		defer srv.Close()
		url := srv.URL + "/platforms/xeon-2gpu/pus?kind=worker&arch=gpu"
		client := srv.Client()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		b.StopTimer()
		st := reg.CacheStats()
		b.ReportMetric(st.HitRatio(), "cache_hit_ratio")
	}
	b.Run("cached", func(b *testing.B) { bench(b, 256) })
	b.Run("uncached", func(b *testing.B) { bench(b, 0) })
}
