// Package units converts the value/unit pairs of PDL properties into base
// quantities: bytes, hertz, bytes per second, seconds. It holds the repo's
// only unit tables; schema validation and the core accessors both read them,
// so a descriptor that validates is one the runtime can price.
//
// Conventions (binary throughout, matched case-insensitively): kB = KiB =
// 2^10 bytes up to TB = TiB = 2^40, and kB/s .. GB/s are 2^10 .. 2^30 bytes
// per second; frequencies and durations are decimal. An empty unit means the
// base quantity. Sizes are non-negative whole numbers and a size that does
// not fit in 64 bits is an error, not a wrapped value. Errors carry no
// package prefix; the validator that reports them adds its own.
package units

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

var sizeUnits = map[string]uint64{
	"": 1, "b": 1,
	"kb": 1 << 10, "kib": 1 << 10,
	"mb": 1 << 20, "mib": 1 << 20,
	"gb": 1 << 30, "gib": 1 << 30,
	"tb": 1 << 40, "tib": 1 << 40,
}

var frequencyUnits = map[string]float64{
	"": 1, "hz": 1, "khz": 1e3, "mhz": 1e6, "ghz": 1e9,
}

var bandwidthUnits = map[string]float64{
	"": 1, "b/s": 1, "kb/s": 1 << 10, "mb/s": 1 << 20, "gb/s": 1 << 30,
}

var durationUnits = map[string]float64{
	"": 1, "s": 1, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9,
}

// Size converts a value/unit pair into bytes.
func Size(value, unit string) (uint64, error) {
	n, err := strconv.ParseUint(strings.TrimSpace(value), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size value %q", value)
	}
	mult, ok := sizeUnits[strings.ToLower(unit)]
	if !ok {
		return 0, fmt.Errorf("unknown size unit %q", unit)
	}
	hi, lo := bits.Mul64(n, mult)
	if hi != 0 {
		return 0, fmt.Errorf("size %s %s overflows 64 bits", value, unit)
	}
	return lo, nil
}

// Frequency converts a value/unit pair into hertz.
func Frequency(value, unit string) (float64, error) {
	return scaled("frequency", frequencyUnits, value, unit)
}

// Bandwidth converts a value/unit pair into bytes per second.
func Bandwidth(value, unit string) (float64, error) {
	return scaled("bandwidth", bandwidthUnits, value, unit)
}

// Duration converts a value/unit pair into seconds.
func Duration(value, unit string) (float64, error) {
	return scaled("duration", durationUnits, value, unit)
}

func scaled(quantity string, table map[string]float64, value, unit string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s value %q", quantity, value)
	}
	mult, ok := table[strings.ToLower(unit)]
	if !ok {
		return 0, fmt.Errorf("unknown %s unit %q", quantity, unit)
	}
	return f * mult, nil
}
