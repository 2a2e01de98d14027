package core

import (
	"fmt"

	"repro/internal/units"
)

// MemoryRegion describes a directly addressable memory space attached to a
// processing unit. Qualitative properties (size, affinity, relative speed)
// live in the MRDescriptor.
type MemoryRegion struct {
	ID         string
	Name       string
	Descriptor Descriptor // the PDL MRDescriptor
}

// SizeBytes returns the region size derived from its GLOBAL_MEM_SIZE
// property, honouring the property unit (bytes when no unit is given).
func (m *MemoryRegion) SizeBytes() (uint64, bool) {
	p, ok := m.Descriptor.Get(PropMemSize)
	if !ok {
		return 0, false
	}
	n, err := units.Size(p.Value, p.Unit)
	return n, err == nil
}

// Interconnect describes a communication facility between two processing
// units. From and To reference PU ids; the abstract model only defines
// connectivity while concrete instances carry bandwidth, latency and scheme
// information in the ICDescriptor.
type Interconnect struct {
	ID         string
	Type       string     // e.g. "rDMA", "PCIe", "QPI"
	From       string     // PU id of one endpoint
	To         string     // PU id of the other endpoint
	Scheme     string     // free-form communication scheme tag
	Duplex     bool       // true if usable in both directions
	Descriptor Descriptor // the PDL ICDescriptor
}

// BandwidthBytesPerSec returns the BANDWIDTH property converted to bytes per
// second (unitless means B/s).
func (ic *Interconnect) BandwidthBytesPerSec() (float64, bool) {
	return ic.quantity("BANDWIDTH", units.Bandwidth)
}

// LatencySeconds returns the LATENCY property converted to seconds (unitless
// means seconds).
func (ic *Interconnect) LatencySeconds() (float64, bool) {
	return ic.quantity("LATENCY", units.Duration)
}

func (ic *Interconnect) quantity(name string, parse func(value, unit string) (float64, error)) (float64, bool) {
	p, ok := ic.Descriptor.Get(name)
	if !ok {
		return 0, false
	}
	v, err := parse(p.Value, p.Unit)
	return v, err == nil
}

// Connects reports whether the interconnect joins PUs a and b (in either
// direction for duplex links, from→to only otherwise).
func (ic *Interconnect) Connects(a, b string) bool {
	if ic.From == a && ic.To == b {
		return true
	}
	return ic.Duplex && ic.From == b && ic.To == a
}

// PU is one processing-unit node in the control hierarchy. Children are the
// units this PU controls, i.e. may delegate tasks to. Quantity expresses
// "this node stands for N identical sibling units" (e.g. 8 CPU cores) without
// repeating the subtree N times; Instances expands it when individual
// identities matter.
type PU struct {
	ID         string
	Class      Class
	Name       string
	Quantity   int        // 0 is treated as 1
	Descriptor Descriptor // the PDL PUDescriptor
	Memory     []MemoryRegion
	Links      []Interconnect // interconnects declared at this node
	Groups     []string       // LogicGroupAttribute values this PU belongs to
	Children   []*PU
}

// EffectiveQuantity returns Quantity with the zero value normalised to 1.
func (p *PU) EffectiveQuantity() int {
	if p.Quantity <= 0 {
		return 1
	}
	return p.Quantity
}

// Architecture returns the unit's ARCHITECTURE property value ("" if unset).
func (p *PU) Architecture() string {
	return p.Descriptor.Value(PropArchitecture)
}

// InGroup reports whether the PU carries the given LogicGroupAttribute.
func (p *PU) InGroup(group string) bool {
	for _, g := range p.Groups {
		if g == group {
			return true
		}
	}
	return false
}

// AddChild appends a controlled unit and returns the parent for chaining.
func (p *PU) AddChild(c *PU) *PU {
	p.Children = append(p.Children, c)
	return p
}

// Walk visits the PU and all transitively controlled units in depth-first
// pre-order. The visitor receives each unit together with its controller
// (nil for the root of the walk); returning false stops the walk.
func (p *PU) Walk(visit func(pu, controller *PU) bool) {
	var rec func(n, parent *PU) bool
	rec = func(n, parent *PU) bool {
		if !visit(n, parent) {
			return false
		}
		for _, c := range n.Children {
			if !rec(c, n) {
				return false
			}
		}
		return true
	}
	rec(p, nil)
}

// Find returns the unit with the given id within this subtree, or nil.
func (p *PU) Find(id string) *PU {
	var found *PU
	p.Walk(func(n, _ *PU) bool {
		if n.ID == id {
			found = n
			return false
		}
		return true
	})
	return found
}

// Clone returns a deep copy of the subtree rooted at p.
func (p *PU) Clone() *PU {
	if p == nil {
		return nil
	}
	cp := &PU{
		ID:         p.ID,
		Class:      p.Class,
		Name:       p.Name,
		Quantity:   p.Quantity,
		Descriptor: p.Descriptor.Clone(),
	}
	if p.Memory != nil {
		cp.Memory = make([]MemoryRegion, len(p.Memory))
		for i, m := range p.Memory {
			cp.Memory[i] = MemoryRegion{ID: m.ID, Name: m.Name, Descriptor: m.Descriptor.Clone()}
		}
	}
	if p.Links != nil {
		cp.Links = make([]Interconnect, len(p.Links))
		for i, ic := range p.Links {
			cp.Links[i] = ic
			cp.Links[i].Descriptor = ic.Descriptor.Clone()
		}
	}
	if p.Groups != nil {
		cp.Groups = append([]string(nil), p.Groups...)
	}
	for _, c := range p.Children {
		cp.Children = append(cp.Children, c.Clone())
	}
	return cp
}

// String renders a one-line summary of the unit.
func (p *PU) String() string {
	arch := p.Architecture()
	if arch == "" {
		arch = "?"
	}
	return fmt.Sprintf("%s(id=%s arch=%s q=%d)", p.Class, p.ID, arch, p.EffectiveQuantity())
}
