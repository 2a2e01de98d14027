package simhw

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/discover"
)

func TestFromPlatformXeon2GPU(t *testing.T) {
	pl := discover.MustPlatform("xeon-2gpu")
	m, err := FromPlatform(pl)
	if err != nil {
		t.Fatal(err)
	}
	cpus := m.UnitsByArch("x86")
	gpus := m.UnitsByArch("gpu")
	if len(cpus) != 8 {
		t.Fatalf("cpu units = %d; want 8 (quantity expansion)", len(cpus))
	}
	if len(gpus) != 2 {
		t.Fatalf("gpu units = %d", len(gpus))
	}
	// All CPU cores share node 0; GPUs have distinct nodes.
	for _, u := range cpus {
		if u.MemNode != 0 {
			t.Fatalf("cpu %s on node %d", u.ID, u.MemNode)
		}
	}
	if gpus[0].MemNode == gpus[1].MemNode || gpus[0].MemNode == 0 {
		t.Fatalf("gpu nodes = %d, %d", gpus[0].MemNode, gpus[1].MemNode)
	}
	if m.NumNodes() != 3 {
		t.Fatalf("nodes = %d", m.NumNodes())
	}
	// Calibration flows from the PDL: 10.64 * 0.92 for cores.
	want := 10.64 * 0.92
	if math.Abs(cpus[0].GFlopsDP-want) > 1e-9 {
		t.Fatalf("cpu rate = %g; want %g", cpus[0].GFlopsDP, want)
	}
	g480 := m.Unit("dev0")
	if g480 == nil || math.Abs(g480.GFlopsDP-168*0.65) > 1e-9 {
		t.Fatalf("gtx480 rate = %+v", g480)
	}
	if !strings.Contains(m.String(), "xeon-2gpu") {
		t.Fatalf("String() = %q", m.String())
	}
}

func TestKernelTime(t *testing.T) {
	pl := discover.MustPlatform("xeon-2gpu")
	m, err := FromPlatform(pl)
	if err != nil {
		t.Fatal(err)
	}
	cpu := m.UnitsByArch("x86")[0]
	gpu := m.Unit("dev0")
	flops := 2.0 * 1024 * 1024 * 1024 // 1024^3 tile GEMM ~ 2 GFLOP
	tc := m.KernelTime(cpu, flops)
	tg := m.KernelTime(gpu, flops)
	if tc <= tg {
		t.Fatalf("cpu (%g s) should be slower than gtx480 (%g s)", tc, tg)
	}
	// Expected ~2/9.79 ≈ 0.204 s for a core.
	if tc < 0.15 || tc > 0.35 {
		t.Fatalf("cpu kernel time = %g s, outside plausible window", tc)
	}
	// Zero-flop kernels still pay launch overhead.
	if got := m.KernelTime(gpu, 0); got != gpu.LaunchS {
		t.Fatalf("zero-flop time = %g", got)
	}
}

func TestTransferTime(t *testing.T) {
	pl := discover.MustPlatform("xeon-2gpu")
	m, err := FromPlatform(pl)
	if err != nil {
		t.Fatal(err)
	}
	gpu0 := m.Unit("dev0")
	gpu1 := m.Unit("dev1")
	const mb64 = 64 << 20
	// Host -> GPU0 over 5 GB/s: ~12.5 ms + 10 us.
	d, err := m.TransferTime(0, gpu0.MemNode, mb64)
	if err != nil {
		t.Fatal(err)
	}
	wantBase := float64(mb64) / (5 * (1 << 30))
	if math.Abs(d-(wantBase+10e-6)) > 1e-6 {
		t.Fatalf("transfer = %g; want %g", d, wantBase+10e-6)
	}
	// Same node: free.
	if d, _ := m.TransferTime(0, 0, mb64); d != 0 {
		t.Fatalf("same-node transfer = %g", d)
	}
	// GPU0 -> GPU1 has no direct link: staged through host, twice the cost.
	d2, err := m.TransferTime(gpu0.MemNode, gpu1.MemNode, mb64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d2-2*d) > 1e-6 {
		t.Fatalf("staged transfer = %g; want %g", d2, 2*d)
	}
}

func TestDefaultsWhenDescriptorOmitsCalibration(t *testing.T) {
	pl, err := core.NewBuilder("bare").
		Master("m", core.Arch("x86")).
		Worker("w", core.Arch("gpu")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromPlatform(pl)
	if err != nil {
		t.Fatal(err)
	}
	u := m.Unit("m")
	if u.GFlopsDP != DefaultGFlopsDP*DefaultEfficiency {
		t.Fatalf("default rate = %g", u.GFlopsDP)
	}
	// No declared link: default PCIe wired in both directions.
	w := m.Unit("w")
	if _, err := m.TransferTime(0, w.MemNode, 1<<20); err != nil {
		t.Fatalf("default link missing: %v", err)
	}
	if _, err := m.TransferTime(w.MemNode, 0, 1<<20); err != nil {
		t.Fatalf("default reverse link missing: %v", err)
	}
}

func TestFromPlatformRejectsInvalid(t *testing.T) {
	if _, err := FromPlatform(&core.Platform{}); err == nil {
		t.Fatal("invalid platform must fail")
	}
}

func TestCellBladeMachine(t *testing.T) {
	m, err := FromPlatform(discover.MustPlatform("cell-blade"))
	if err != nil {
		t.Fatal(err)
	}
	spes := m.UnitsByArch("spe")
	if len(spes) != 8 {
		t.Fatalf("spes = %d", len(spes))
	}
	// Each SPE has a local store node.
	nodes := map[int]bool{}
	for _, s := range spes {
		nodes[s.MemNode] = true
	}
	if len(nodes) != 8 {
		t.Fatalf("spe nodes = %d distinct", len(nodes))
	}
}
