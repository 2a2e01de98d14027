// Package discover is where PDL platform descriptions come from: a fixed
// catalog of documents, and a generator that probes the machine, the way the
// paper envisions hwloc- or OpenCL-based generation of descriptors
// ("implementations of the PDL enable manual as well as automatic generation
// of PDL descriptors", Section II).
//
// The catalog (Platform, CatalogNames) is PDL files: every fixed platform,
// including the paper's Listing 1 node and its evaluation testbed, is one
// embedded platforms/NAME.pdl.xml, parsed once. The calibrated
// PEAK_GFLOPS_DP / DGEMM_EFFICIENCY properties in those files parameterise
// the hardware simulator (internal/simhw): the PDL document itself is the
// single source of machine truth, exactly the role the paper assigns it.
//
// Generate is the probe path. It reads the real machine (core count,
// architecture) via the Go runtime — the portable subset of what hwloc
// exposes — and attaches synthetic OpenCL devices standing in for the
// runtime enumeration the paper used on its GPU testbed (GTX480, GTX285), so
// a generated descriptor reproduces Listing 2 without the proprietary driver
// stack.
package discover

import (
	"fmt"
	"runtime"

	"repro/internal/core"
)

// HostInfo describes the probed host machine.
type HostInfo struct {
	Arch  string // normalised PDL architecture tag ("x86", "arm", ...)
	Cores int
}

// ProbeHost inspects the running machine.
func ProbeHost() HostInfo {
	arch := "x86"
	switch runtime.GOARCH {
	case "amd64", "386":
		arch = "x86"
	case "arm64", "arm":
		arch = "arm"
	default:
		arch = runtime.GOARCH
	}
	return HostInfo{Arch: arch, Cores: runtime.NumCPU()}
}

// Options configure platform generation.
type Options struct {
	Name     string          // platform name; default "discovered"
	Host     *HostInfo       // nil probes the real host
	Devices  []*OpenCLDevice // accelerator devices to attach as Workers
	Concrete bool            // attach full runtime-derived (unfixed, typed) properties
}

// The host-device link every generated platform declares: PCIe 2.0 x16's
// effective 5 GB/s and a 10 µs latency.
const (
	linkGBs  = 5.0
	linkUSec = 10.0
)

// Generate builds a validated PDL platform from the options: one Master for
// the host (quantity = core count), one Worker per device, and a PCIe
// interconnect (linkGBs, linkUSec) from host to each device.
func Generate(opts Options) (*core.Platform, error) {
	name := opts.Name
	if name == "" {
		name = "discovered"
	}
	host := opts.Host
	if host == nil {
		h := ProbeHost()
		host = &h
	}
	if host.Cores < 1 {
		return nil, fmt.Errorf("discover: host with %d cores", host.Cores)
	}

	b := core.NewBuilder(name).
		Master("host", core.Arch(host.Arch), core.Qty(host.Cores),
			core.WithProp(core.PropCores, fmt.Sprint(host.Cores)),
			core.InGroups("cpuset"))
	for i := range opts.Devices {
		id := fmt.Sprintf("dev%d", i)
		b.Worker(id, core.Arch("gpu"), core.InGroups("devset"))
		b.Link(core.ICTypePCIe, "host", id,
			core.Bandwidth(linkGBs), core.Latency(linkUSec), core.Scheme("dma"))
	}
	pl, err := b.Build()
	if err != nil {
		return nil, err
	}
	for i, dev := range opts.Devices {
		w := pl.FindPU(fmt.Sprintf("dev%d", i))
		for _, p := range dev.FixedProperties() {
			w.Descriptor.Set(p)
		}
		if opts.Concrete {
			for _, p := range dev.RuntimeProperties() {
				w.Descriptor.Set(p)
			}
		}
	}
	return pl, nil
}
