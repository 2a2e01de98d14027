// Package discover generates PDL platform descriptions automatically, the
// way the paper envisions hwloc- or OpenCL-based generation of descriptors
// ("implementations of the PDL enable manual as well as automatic generation
// of PDL descriptors", Section II).
//
// Two sources feed the generator:
//
//   - a host probe reading the real machine (core count, architecture) via
//     the Go runtime — the portable subset of what hwloc exposes; and
//   - a synthetic device registry standing in for the OpenCL/CUDA runtime
//     enumeration the paper used on its GPU testbed. The registry carries the
//     published characteristics of the paper's devices (GeForce GTX 480 and
//     GTX 285), so the generated descriptors reproduce Listing 2 without the
//     proprietary driver stack.
//
// The calibrated PEAK_GFLOPS_DP / DGEMM_EFFICIENCY properties attached to
// devices parameterise the hardware simulator (internal/simhw): the PDL
// document itself is the single source of machine truth, exactly the role
// the paper assigns it.
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
	Name     string    // platform name; default "discovered"
	Host     *HostInfo // nil probes the real host
	Devices  []Device  // accelerator devices to attach as Workers
	Concrete bool      // attach full runtime-derived (unfixed, typed) properties
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
	for i, dev := range opts.Devices {
		id := fmt.Sprintf("dev%d", i)
		b.Worker(id, core.Arch(dev.Architecture()), core.InGroups("devset"))
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

// Device is an accelerator the generator can attach. Implementations model
// the enumeration APIs of concrete runtimes (OpenCL, CUDA, Cell SDK).
type Device interface {
	// Architecture returns the PDL ARCHITECTURE tag ("gpu", "spe", ...).
	Architecture() string
	// FixedProperties returns author-level, always-attached properties
	// (device name, calibration).
	FixedProperties() []core.Property
	// RuntimeProperties returns the unfixed, subschema-typed properties a
	// runtime enumeration would add (the paper's Listing 2 content).
	RuntimeProperties() []core.Property
}
