package discover

import (
	"fmt"

	"repro/internal/core"
)

// OpenCLDevice is a synthetic stand-in for one clGetDeviceInfo enumeration
// result. Field values for the predefined devices are the published
// characteristics of the boards in the paper's testbed.
type OpenCLDevice struct {
	Name          string
	Vendor        string
	ComputeUnits  int
	WorkItemDims  int
	GlobalMemKB   int64
	LocalMemKB    int64
	ClockMHz      int
	DeviceVersion string
	DriverVersion string

	// Calibration for the hardware simulator (internal/simhw): sustained
	// double-precision GEMM throughput = PeakGFlopsDP * DGEMMEfficiency.
	PeakGFlopsDP    float64
	DGEMMEfficiency float64
	KernelLaunchUS  float64 // per-kernel launch overhead
}

// oclType is the xsi:type of OpenCL runtime properties (paper Listing 2).
const oclType = "ocl:oclDevicePropertyType"

// simType is the xsi:type of simulator calibration properties.
const simType = "sim:simDevicePropertyType"

// FixedProperties returns the author-level identity and calibration values a
// generated Worker always carries.
func (d *OpenCLDevice) FixedProperties() []core.Property {
	return []core.Property{
		{Name: core.PropDeviceName, Value: d.Name, Fixed: true},
		{Name: core.PropVendor, Value: d.Vendor, Fixed: true},
		{Name: "PEAK_GFLOPS_DP", Value: fmt.Sprint(d.PeakGFlopsDP), Fixed: true, Type: simType},
		{Name: "DGEMM_EFFICIENCY", Value: fmt.Sprint(d.DGEMMEfficiency), Fixed: true, Type: simType},
		{Name: "KERNEL_LAUNCH_US", Value: fmt.Sprint(d.KernelLaunchUS), Fixed: true, Type: simType},
	}
}

// RuntimeProperties returns the unfixed ocl-typed properties a runtime
// enumeration adds: exactly those of the paper's Listing 2, plus version
// strings.
func (d *OpenCLDevice) RuntimeProperties() []core.Property {
	return []core.Property{
		{Name: "DEVICE_NAME", Value: d.Name, Fixed: false, Type: oclType},
		{Name: "MAX_COMPUTE_UNITS", Value: fmt.Sprint(d.ComputeUnits), Fixed: false, Type: oclType},
		{Name: "MAX_WORK_ITEM_DIMENSIONS", Value: fmt.Sprint(d.WorkItemDims), Fixed: false, Type: oclType},
		{Name: "GLOBAL_MEM_SIZE", Value: fmt.Sprint(d.GlobalMemKB), Unit: "kB", Fixed: false, Type: oclType},
		{Name: "LOCAL_MEM_SIZE", Value: fmt.Sprint(d.LocalMemKB), Unit: "kB", Fixed: false, Type: oclType},
		{Name: "DEVICE_VERSION", Value: d.DeviceVersion, Fixed: false, Type: oclType},
		{Name: "DRIVER_VERSION", Value: d.DriverVersion, Fixed: false, Type: oclType},
	}
}

// GTX480 returns the GeForce GTX 480 of the paper's testbed. The Listing 2
// values (15 compute units, 1.5 GB global, 48 kB local) are taken verbatim
// from the paper; the double-precision calibration reflects the board's
// 168 GFLOP/s DP peak with a CuBLAS 3.2-era DGEMM efficiency of ~0.65.
func GTX480() *OpenCLDevice {
	return &OpenCLDevice{
		Name:            "GeForce GTX 480",
		Vendor:          "Nvidia",
		ComputeUnits:    15,
		WorkItemDims:    3,
		GlobalMemKB:     1572864,
		LocalMemKB:      48,
		ClockMHz:        1401,
		DeviceVersion:   "OpenCL 1.1 CUDA",
		DriverVersion:   "260.19",
		PeakGFlopsDP:    168,
		DGEMMEfficiency: 0.65,
		KernelLaunchUS:  7,
	}
}

// GTX285 returns the GeForce GTX 285, the second board of the paper's
// testbed: 30 compute units, 1 GB global memory, 88.5 GFLOP/s DP peak.
func GTX285() *OpenCLDevice {
	return &OpenCLDevice{
		Name:            "GeForce GTX 285",
		Vendor:          "Nvidia",
		ComputeUnits:    30,
		WorkItemDims:    3,
		GlobalMemKB:     1048576,
		LocalMemKB:      16,
		ClockMHz:        1476,
		DeviceVersion:   "OpenCL 1.0 CUDA",
		DriverVersion:   "260.19",
		PeakGFlopsDP:    88.5,
		DGEMMEfficiency: 0.75,
		KernelLaunchUS:  7,
	}
}
