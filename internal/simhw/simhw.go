// Package simhw instantiates a simulated heterogeneous machine from a PDL
// platform description. It is the substitution for the paper's physical
// testbed (dual-socket Xeon X5550 + GTX480 + GTX285): processing units
// become virtual-time resources whose kernel execution costs derive from the
// calibration properties carried in the PDL document (PEAK_GFLOPS_DP,
// DGEMM_EFFICIENCY, KERNEL_LAUNCH_US), and interconnects become bandwidth/
// latency links between memory nodes.
//
// The PDL document is the single source of truth: changing the descriptor
// changes the machine, which is precisely the property the paper claims for
// explicit platform descriptions.
package simhw

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/placement"
)

// Unit is one simulated processing-unit instance.
type Unit struct {
	ID       string // expanded PU instance id, e.g. "host.3" or "dev0"
	Arch     string // PDL ARCHITECTURE tag
	Class    core.Class
	MemNode  int     // memory node holding this unit's directly addressable data
	GFlopsDP float64 // sustained double-precision GEMM rate (GFLOP/s)
	LaunchS  float64 // per-kernel launch overhead in seconds
}

// Link is a directed bandwidth/latency edge between two memory nodes.
type Link struct {
	From, To  int     // memory node ids
	Bandwidth float64 // bytes per second
	Latency   float64 // seconds
}

// TransferTime returns the virtual seconds needed to move n bytes.
func (l *Link) TransferTime(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.Latency + float64(bytes)/l.Bandwidth
}

// Route is the way bytes take from one memory node to another: no hop between
// a node and itself, the direct link, or two hops through node 0 (host RAM).
type Route struct {
	hops int // 0, 1 or 2; -1 when there is no route
	hop  [2]Link
}

// OK reports whether the route exists.
func (r *Route) OK() bool { return r.hops >= 0 }

// Seconds returns the virtual seconds the route needs to move bytes: the sum
// of its hops' Link.TransferTime. It is 0 on a route that does not exist.
func (r *Route) Seconds(bytes int64) float64 {
	switch r.hops {
	case 1:
		return r.hop[0].TransferTime(bytes)
	case 2:
		return r.hop[0].TransferTime(bytes) + r.hop[1].TransferTime(bytes)
	}
	return 0
}

// Machine is the simulated hardware: units, memory nodes and links.
type Machine struct {
	Name  string
	Units []*Unit
	// routes is the way between every ordered pair of memory nodes, one dense
	// table built with the machine: routes[from*numNodes+to]. A transfer is
	// priced for every missing operand of every bid, so its route is one
	// index, and the one rule that prices it is Route.Seconds.
	routes   []Route
	numNodes int
}

// Defaults applied when a PDL document omits calibration properties: a
// conservative CPU-core rate. A link that omits BANDWIDTH or LATENCY gets the
// bus-class default the real engine's placement prices with
// (placement.BusBandwidth, placement.BusLatency).
const (
	DefaultGFlopsDP   = 8.0
	DefaultEfficiency = 0.7
	DefaultLaunchS    = 1e-6
)

// FromPlatform builds the simulated machine from a PDL platform. Quantities
// are expanded (a Master with quantity 8 becomes 8 CPU units sharing memory
// node 0). Every Master/Hybrid instance shares node 0 (host RAM); every
// Worker gets its own memory node (device memory), matching the distinct
// memory spaces of the paper's machine model. Declared interconnects set the
// host↔device link characteristics.
func FromPlatform(pl *core.Platform) (*Machine, error) {
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("simhw: %w", err)
	}
	ex := pl.Expand()
	m := &Machine{Name: pl.Name}
	m.numNodes = 1 // node 0 = host RAM

	// Map original (unexpanded) worker PU id -> memory node, so interconnect
	// endpoints can be resolved to nodes.
	nodeOf := map[string]int{}
	ex.Walk(func(pu, _ *core.PU) bool {
		node := 0
		if pu.Class == core.Worker {
			node = m.numNodes
			m.numNodes++
		}
		nodeOf[pu.ID] = node
		rate := unitRate(pu)
		launch := unitLaunch(pu)
		m.Units = append(m.Units, &Unit{
			ID:       pu.ID,
			Arch:     pu.Architecture(),
			Class:    pu.Class,
			MemNode:  node,
			GFlopsDP: rate,
			LaunchS:  launch,
		})
		return true
	})

	// Wire declared interconnects between the endpoint nodes: each is the
	// direct route of its pair.
	n := m.numNodes
	m.routes = make([]Route, n*n)
	for i := range m.routes {
		if i/n != i%n {
			m.routes[i].hops = -1 // no route yet
		}
	}
	addLink := func(from, to int, bw, lat float64) {
		m.routes[from*n+to] = Route{hops: 1, hop: [2]Link{{From: from, To: to, Bandwidth: bw, Latency: lat}}}
	}
	for _, ic := range ex.Interconnects() {
		from, okF := nodeOf[ic.From]
		to, okT := nodeOf[ic.To]
		if !okF || !okT || from == to {
			continue
		}
		bw, ok := ic.BandwidthBytesPerSec()
		if !ok {
			bw = placement.BusBandwidth
		}
		lat, ok := ic.LatencySeconds()
		if !ok {
			lat = placement.BusLatency
		}
		addLink(from, to, bw, lat)
		if ic.Duplex {
			addLink(to, from, bw, lat)
		}
	}
	// Guarantee host↔device connectivity even when the descriptor omits
	// links (abstract patterns): default PCIe characteristics.
	for _, u := range m.Units {
		if u.MemNode != 0 && !m.Route(0, u.MemNode).OK() {
			addLink(0, u.MemNode, placement.BusBandwidth, placement.BusLatency)
			addLink(u.MemNode, 0, placement.BusBandwidth, placement.BusLatency)
		}
	}
	if len(m.Units) == 0 {
		return nil, fmt.Errorf("simhw: platform %q has no units", pl.Name)
	}
	// Two devices without a direct link route through node 0 (host RAM),
	// which mirrors real PCIe topologies where device-to-device copies are
	// staged through the host. Every route to or from node 0 is direct.
	for from := 1; from < n; from++ {
		for to := 1; to < n; to++ {
			up, down := m.Route(from, 0), m.Route(0, to)
			if r := &m.routes[from*n+to]; from != to && !r.OK() && up.OK() && down.OK() {
				*r = Route{hops: 2, hop: [2]Link{up.hop[0], down.hop[0]}}
			}
		}
	}
	return m, nil
}

func unitRate(pu *core.PU) float64 {
	peak, ok := pu.Descriptor.Float(core.PropGFlopsDP)
	if !ok {
		peak = DefaultGFlopsDP
	}
	eff, ok := pu.Descriptor.Float("DGEMM_EFFICIENCY")
	if !ok {
		eff = DefaultEfficiency
	}
	return peak * eff
}

func unitLaunch(pu *core.PU) float64 {
	us, ok := pu.Descriptor.Float("KERNEL_LAUNCH_US")
	if !ok {
		return DefaultLaunchS
	}
	return us * 1e-6
}

// NumNodes returns the number of memory nodes.
func (m *Machine) NumNodes() int { return m.numNodes }

// Route returns the route from one memory node to another, both below
// NumNodes. It points into the machine's table: do not write through it.
func (m *Machine) Route(from, to int) *Route { return &m.routes[from*m.numNodes+to] }

// TransferTime returns the virtual seconds to move bytes between two memory
// nodes (0 when src == dst): the seconds of their Route, or an error when
// either node does not exist or no route joins them.
func (m *Machine) TransferTime(from, to int, bytes int64) (float64, error) {
	if from == to {
		return 0, nil
	}
	if n := uint(m.numNodes); uint(from) >= n || uint(to) >= n {
		return 0, fmt.Errorf("simhw: memory nodes %d and %d: the machine has %d", from, to, n)
	}
	r := m.Route(from, to)
	if !r.OK() {
		return 0, fmt.Errorf("simhw: no route between memory nodes %d and %d", from, to)
	}
	return r.Seconds(bytes), nil
}

// KernelTime returns the virtual seconds unit u needs to execute flops
// floating-point operations, including launch overhead.
func (m *Machine) KernelTime(u *Unit, flops float64) float64 {
	if flops <= 0 {
		return u.LaunchS
	}
	return u.LaunchS + flops/(u.GFlopsDP*1e9)
}

// String summarises the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("simhw.Machine{%s: %d units, %d memory nodes}", m.Name, len(m.Units), m.numNodes)
}
