package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/blas"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
)

// Direct, single-threaded timed calls into a layer's public functions: the
// per-layer rows that say how fast a layer is by itself, next to the rows
// that say how much of a workload it was.

// kernelProbe times one tile kernel. call prepares fresh operands outside
// the timed region and returns the seconds one call took.
type kernelProbe struct {
	metric  string
	codelet string
	flops   float64
	bytes   float64 // computed: every operand read once, the output written once
	call    func() (float64, error)
}

func timeCall(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

func randomMatrix(n int, seed int64) *blas.Matrix {
	m := blas.NewMatrix(n, n)
	m.FillRandom(seed)
	return m
}

func cholKernels(tile int, seed int64) []kernelProbe {
	spd := experiments.NewSPDMatrix(tile, seed)
	fac := experiments.NewSPDMatrix(tile, seed+1)
	if err := blas.Potrf(fac); err != nil {
		panic(err) // a diagonally dominant matrix always factors
	}
	panel, other := randomMatrix(tile, seed+2), randomMatrix(tile, seed+3)
	t2 := float64(tile*tile) * 8
	return []kernelProbe{
		{"blas.potrf_gflops", "potrf", blas.FlopsPOTRF(tile), 2 * t2, func() (float64, error) {
			a := spd.Clone()
			return timeCall(func() error { return blas.Potrf(a) })
		}},
		{"blas.trsm_rlt_gflops", "trsm_rlt", blas.FlopsTRSM(tile, tile), 3 * t2, func() (float64, error) {
			b := panel.Clone()
			return timeCall(func() error { return blas.TrsmRLT(fac, b) })
		}},
		{"blas.syrk_gflops", "syrk_nt", blas.FlopsSYRK(tile, tile), 3 * t2, func() (float64, error) {
			c := spd.Clone()
			return timeCall(func() error { return blas.SyrkNT(panel, c) })
		}},
		{"blas.gemm_nt_gflops", "gemm_nt", blas.FlopsGEMM(tile, tile, tile), 4 * t2, func() (float64, error) {
			c := spd.Clone()
			return timeCall(func() error { return blas.GemmNT(panel, other, c) })
		}},
	}
}

func luKernels(tile int, seed int64) []kernelProbe {
	dd := experiments.NewDiagDominantMatrix(tile, seed)
	fac := experiments.NewDiagDominantMatrix(tile, seed+1)
	if err := blas.Getrf(fac); err != nil {
		panic(err) // a diagonally dominant matrix always factors
	}
	panel, other := randomMatrix(tile, seed+2), randomMatrix(tile, seed+3)
	t2 := float64(tile*tile) * 8
	return []kernelProbe{
		{"blas.getrf_gflops", "getrf", blas.FlopsGETRF(tile), 2 * t2, func() (float64, error) {
			a := dd.Clone()
			return timeCall(func() error { return blas.Getrf(a) })
		}},
		{"blas.trsm_llu_gflops", "trsm_llu", blas.FlopsTRSM(tile, tile), 3 * t2, func() (float64, error) {
			b := panel.Clone()
			return timeCall(func() error { return blas.TrsmLLUnit(fac, b) })
		}},
		{"blas.trsm_ru_gflops", "trsm_ru", blas.FlopsTRSM(tile, tile), 3 * t2, func() (float64, error) {
			b := panel.Clone()
			return timeCall(func() error { return blas.TrsmRU(fac, b) })
		}},
		{"blas.gemm_sub_gflops", "gemm_sub", blas.FlopsGEMM(tile, tile, tile), 4 * t2, func() (float64, error) {
			c := dd.Clone()
			return timeCall(func() error { return blas.GemmSub(panel, other, c) })
		}},
	}
}

// gemmPackedProbe is blas.GemmPacked on n×n operands: n=1024 is the
// headline kernel rate, n=tile what a DGEMM task of the tiled graphs runs.
func gemmPackedProbe(metric string, n int, seed int64) kernelProbe {
	a, b := randomMatrix(n, seed), randomMatrix(n, seed+1)
	c := blas.NewMatrix(n, n)
	return kernelProbe{metric, "dgemm", blas.FlopsGEMM(n, n, n), 4 * float64(n*n) * 8, func() (float64, error) {
		return timeCall(func() error { return blas.GemmPacked(a, b, c, blas.DefaultBlock) })
	}}
}

// probeKernels calls the kernels round-robin for about d (at least three
// rounds) and reports each as flops ÷ median seconds, in GF/s.
func probeKernels(d time.Duration, kernels []kernelProbe, res *result) {
	deadline := time.Now().Add(d)
	times := make([][]float64, len(kernels))
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for i, k := range kernels {
			sec, err := k.call()
			res.op(err)
			if err == nil {
				times[i] = append(times[i], sec)
			}
		}
	}
	for i, k := range kernels {
		s := summarize(times[i])
		if s.Median <= 0 {
			continue
		}
		res.set(k.metric, k.flops/s.Median/1e9)
		res.samples[k.metric] = summary{N: s.N, Median: k.flops / s.Median / 1e9, Q1: k.flops / s.Q3 / 1e9, Q3: k.flops / s.Q1 / 1e9}
		res.note("%s: %.3g flop and %.0f KiB moved (computed) per call, %.2f flop/byte",
			k.metric, k.flops, k.bytes/1024, k.flops/k.bytes)
	}
}

func probeCholesky(d time.Duration, tile int, seed int64, res *result) {
	fma := probeFMA(res)
	probeMemcpy(res)
	packedN := 1024
	if tile < 128 {
		packedN = 256 // smoke
	}
	packed := gemmPackedProbe("blas.gemm_packed_gflops", packedN, seed)
	probeKernels(d/4, []kernelProbe{packed}, res)
	if fma > 0 {
		res.set("blas.roofline_frac", res.values[packed.metric]/fma)
	}
	probeKernels(d/2, append(cholKernels(tile, seed), gemmPackedProbe("blas.gemm_tile_gflops", tile, seed)), res)
}

// probeFMA is the compute anchor: independent fused multiply-adds on
// registers for about a quarter second, single thread. With the AVX2 kernel
// selected by blas it uses 256-bit FMAs, otherwise scalar math.FMA chains.
func probeFMA(res *result) float64 {
	const itersPerCall = 1 << 20
	deadline := time.Now().Add(250 * time.Millisecond)
	var rates []float64
	for len(rates) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		flops := fmaLoop(itersPerCall)
		rates = append(rates, flops/time.Since(t0).Seconds()/1e9)
	}
	best := median(rates)
	res.set("probe.fma_gflops", best)
	res.samples["probe.fma_gflops"] = summarize(rates)
	res.note("probe.fma_gflops: %s, one thread, median of %d calls of %d iterations", fmaKind(), len(rates), itersPerCall)
	return best
}

// fmaLoopScalar runs eight independent math.FMA chains and returns the
// flops performed.
func fmaLoopScalar(iters int) float64 {
	a0, a1, a2, a3, a4, a5, a6, a7 := 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7
	x, y := 0.999999, 1e-9
	for i := 0; i < iters; i++ {
		a0 = math.FMA(a0, x, y)
		a1 = math.FMA(a1, x, y)
		a2 = math.FMA(a2, x, y)
		a3 = math.FMA(a3, x, y)
		a4 = math.FMA(a4, x, y)
		a5 = math.FMA(a5, x, y)
		a6 = math.FMA(a6, x, y)
		a7 = math.FMA(a7, x, y)
	}
	sink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	return float64(iters) * 8 * 2
}

var sink float64

// maxProbeArray caps the memcpy arrays: a VM may report a host-wide L3 far
// larger than its share, and two arrays of four times that would not fit.
const maxProbeArray = 256 << 20

// llcBytes reads the largest cache the first CPU reports; 0 when unknown.
func llcBytes() int64 {
	var largest int64
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > largest {
			largest = v * mult
		}
	}
	return largest
}

// probeMemcpy is the bandwidth anchor: copy() between two arrays of four
// times the last-level cache (capped at maxProbeArray), single thread,
// reported as bytes copied per second.
func probeMemcpy(res *result) {
	llc := llcBytes()
	size := 4 * llc
	if size <= 0 || size > maxProbeArray {
		size = maxProbeArray
	}
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // first touch of dst
	var rates []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		copy(dst, src)
		rates = append(rates, float64(size)/time.Since(t0).Seconds()/1e9)
	}
	res.set("probe.memcpy_gbs", median(rates))
	res.samples["probe.memcpy_gbs"] = summarize(rates)
	res.note("probe.memcpy_gbs: arrays of %d MiB each, last-level cache reported as %d MiB", size>>20, llc>>20)
}

// probePerfmodel times Model.Estimate and Model.Record on a store shaped
// like the one dmda consults: a handful of samples per (codelet, arch).
func probePerfmodel(d time.Duration, res *result) {
	m := perfmodel.NewStore().Model("noop", "x86")
	for _, sz := range []float64{1e5, 1e6, 1e7} {
		if err := m.Record(sz, sz/1e9); err != nil {
			res.op(err)
			return
		}
	}
	const batch = 10000
	var est, rec []float64
	deadline := time.Now().Add(d)
	for len(est) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			s, _ := m.Estimate(1e6 + float64(i))
			sink += s
		}
		est = append(est, time.Since(t0).Seconds()/batch)
		fresh := perfmodel.NewStore().Model("noop", "x86")
		t0 = time.Now()
		for i := 0; i < batch; i++ {
			if err := fresh.Record(1e6+float64(i), 1e-3); err != nil {
				res.op(err)
				return
			}
		}
		rec = append(rec, time.Since(t0).Seconds()/batch)
	}
	res.timing("perfmodel.estimate_ns", est, 1e9)
	res.timing("perfmodel.record_ns", rec, 1e9)
}
