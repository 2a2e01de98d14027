package units

import (
	"math"
	"testing"
)

// The rows are the edges on which the two tables this package replaced
// (core.MemoryRegion.SizeBytes, schema.ParseSize) disagreed or were both
// silently wrong.
func TestSize(t *testing.T) {
	cases := []struct {
		value, unit string
		want        uint64
		ok          bool
	}{
		{"1", "", 1, true},
		{"1", "B", 1, true},
		{" 7 ", "b", 7, true},
		{"1", "kB", 1 << 10, true},
		{"1", "KB", 1 << 10, true},
		{"1", "KiB", 1 << 10, true},
		{"2", "MB", 2 << 20, true},
		{"2", "MiB", 2 << 20, true},
		{"3", "GB", 3 << 30, true},
		{"3", "GiB", 3 << 30, true}, // core used to reject the IEC spellings
		{"1", "TB", 1 << 40, true},
		{"1", "TiB", 1 << 40, true},
		{"0", "TiB", 0, true},
		{"16777215", "TiB", 16777215 << 40, true}, // largest whole TiB count that fits
		{"16777216", "TiB", 0, false},             // 2^64: used to wrap to 0
		{"18446744073709551615", "", math.MaxUint64, true},
		{"18446744073709551615", "kB", 0, false},
		{"18446744073709551616", "", 0, false},
		{"-1", "kB", 0, false},
		{"1.5", "GB", 0, false}, // sizes are whole numbers
		{"", "kB", 0, false},
		{"x", "kB", 0, false},
		{"1", "bits", 0, false},
		{"1", "kB/s", 0, false},
	}
	for _, c := range cases {
		got, err := Size(c.value, c.unit)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("Size(%q, %q) = %d, %v; want %d, ok=%v", c.value, c.unit, got, err, c.want, c.ok)
		}
	}
}

func TestScaledQuantities(t *testing.T) {
	// Variables, so the expected products are rounded at run time like the
	// conversions are (a constant 10 * 1e-6 is rounded once, from the exact
	// product): the table pins today's results to the bit.
	ms, us, ns := 1e-3, 1e-6, 1e-9
	cases := []struct {
		name        string
		parse       func(value, unit string) (float64, error)
		value, unit string
		want        float64
		ok          bool
	}{
		{"frequency", Frequency, "2660", "MHz", 2660 * 1e6, true},
		{"frequency", Frequency, "2.66", "GHz", 2.66 * 1e9, true},
		{"frequency", Frequency, "50", "", 50, true},
		{"frequency", Frequency, "1", "kHz", 1e3, true},
		{"frequency", Frequency, "1", "eV", 0, false},
		{"bandwidth", Bandwidth, "5", "GB/s", 5 * (1 << 30), true},
		{"bandwidth", Bandwidth, "0.5", "gb/s", 1 << 29, true},
		{"bandwidth", Bandwidth, "2", "MB/s", 2 << 20, true},
		{"bandwidth", Bandwidth, "1024", "kB/s", 1 << 20, true},
		{"bandwidth", Bandwidth, "5", "", 5, true},
		{"bandwidth", Bandwidth, "5", "B/s", 5, true},
		{"bandwidth", Bandwidth, "5", "GB", 0, false},
		{"bandwidth", Bandwidth, "x", "GB/s", 0, false},
		{"duration", Duration, "2", "", 2, true},
		{"duration", Duration, "2", "s", 2, true},
		{"duration", Duration, "5", "ms", 5 * ms, true},
		{"duration", Duration, "10", "us", 10 * us, true},
		{"duration", Duration, "10", "µs", 10 * us, true},
		{"duration", Duration, "7", "ns", 7 * ns, true},
		{"duration", Duration, "-1", "ms", -1 * ms, true}, // sign is the validator's business
		{"duration", Duration, "10", "fortnights", 0, false},
		{"duration", Duration, "", "s", 0, false},
	}
	for _, c := range cases {
		got, err := c.parse(c.value, c.unit)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("%s(%q, %q) = %g, %v; want %g, ok=%v", c.name, c.value, c.unit, got, err, c.want, c.ok)
		}
	}
}
