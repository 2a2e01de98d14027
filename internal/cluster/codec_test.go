package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/blas"
)

func roundTrip(t *testing.T, v any) (any, []byte) {
	t.Helper()
	frame, err := EncodePayload(v)
	if err != nil {
		t.Fatalf("encoding %T: %v", v, err)
	}
	got, err := DecodePayload(frame)
	if err != nil {
		t.Fatalf("decoding %T: %v", v, err)
	}
	return got, frame
}

func TestPayloadCodecRoundTrip(t *testing.T) {
	t.Run("a view ships only its own elements", func(t *testing.T) {
		parent := blas.NewMatrix(512, 512)
		parent.FillRandom(3)
		view := parent.Sub(128, 256, 128, 128)
		got, frame := roundTrip(t, view)
		if want := matrixHeader + 8*128*128; len(frame) != want {
			t.Fatalf("a 128×128 view of a 512×512 parent shipped %d bytes, want %d", len(frame), want)
		}
		m := got.(*blas.Matrix)
		if m.Rows != 128 || m.Cols != 128 || m.Stride != 128 || blas.MaxDiff(view, m) != 0 {
			t.Fatalf("view came back %dx%d stride %d, maxdiff %g", m.Rows, m.Cols, m.Stride, blas.MaxDiff(view, m))
		}
	})

	t.Run("empty matrices keep their shape", func(t *testing.T) {
		for _, shape := range [][2]int{{0, 5}, {5, 0}, {0, 0}} {
			got, frame := roundTrip(t, blas.NewMatrix(shape[0], shape[1]))
			m := got.(*blas.Matrix)
			if m.Rows != shape[0] || m.Cols != shape[1] || len(m.Data) != 0 || len(frame) != matrixHeader {
				t.Errorf("%dx%d came back %dx%d with %d elements in a %d-byte frame", shape[0], shape[1], m.Rows, m.Cols, len(m.Data), len(frame))
			}
		}
	})

	t.Run("float64 bits are preserved", func(t *testing.T) {
		bits := []uint64{
			0x7ff8000000000001, 0x7ff4000000000000, 0xfff8dead0000beef, // quiet, signalling and signed NaNs with payloads
			0x8000000000000000, 0, 1, 0x7ff0000000000000, 0xfff0000000000000, // -0, 0, smallest subnormal, ±Inf
		}
		vals := make([]float64, len(bits))
		for i, b := range bits {
			vals[i] = math.Float64frombits(b)
		}
		same := func(kind string, got []float64) {
			t.Helper()
			for i, v := range got {
				if math.Float64bits(v) != bits[i] {
					t.Errorf("%s element %d: bits %#016x, want %#016x", kind, i, math.Float64bits(v), bits[i])
				}
			}
		}
		got, _ := roundTrip(t, &blas.Matrix{Rows: 2, Cols: 4, Stride: 4, Data: vals})
		same("matrix", got.(*blas.Matrix).Data)
		got, _ = roundTrip(t, vals)
		same("slice", got.([]float64))
	})

	t.Run("slices and the gob fallback", func(t *testing.T) {
		for _, v := range []any{
			[]float64{1.5, -2.25, 3}, []float64{},
			[]byte("raw bytes \x00\xff"), []byte{},
			// Every type init registers with gob:
			[]int{3, -1, 4}, float64(2.5), int(-7), "a string",
		} {
			got, frame := roundTrip(t, v)
			if !reflect.DeepEqual(got, v) {
				t.Errorf("%T %v came back %T %v", v, v, got, got)
			}
			wantTag := byte(frameGob)
			switch v.(type) {
			case []float64:
				wantTag = frameFloat64
			case []byte:
				wantTag = frameBytes
			}
			if frame[0] != wantTag {
				t.Errorf("%T framed with tag %q, want %q", v, frame[0], wantTag)
			}
		}
	})
}

// The frame of the benchmark's tile is its elements plus the header: what
// crosses the link is what placement.Link priced.
func TestPayloadFrameIsRawSize(t *testing.T) {
	frame, err := EncodePayload(blas.NewMatrix(128, 128))
	if err != nil {
		t.Fatal(err)
	}
	if want := 8*128*128 + matrixHeader; len(frame) != want {
		t.Fatalf("a 128×128 tile frames to %d bytes, want %d", len(frame), want)
	}
}

func matrixFrame(rows, cols uint64, body int) []byte {
	f := make([]byte, matrixHeader+body)
	f[0] = frameMatrix
	binary.LittleEndian.PutUint64(f[1:], rows)
	binary.LittleEndian.PutUint64(f[9:], cols)
	return f
}

func TestDecodePayloadRejectsMalformed(t *testing.T) {
	gobFrame, err := EncodePayload("boxed")
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{
		"empty":                   {},
		"unknown tag":             {'?', 1, 2, 3},
		"matrix header truncated": matrixFrame(2, 2, 32)[:matrixHeader-1],
		"matrix body short":       matrixFrame(2, 2, 24),
		"matrix trailing bytes":   matrixFrame(2, 2, 40),
		"matrix body not whole":   matrixFrame(1, 1, 9),
		"rows×cols overflows":     matrixFrame(1<<32, 1<<32, 0),
		"rows×cols×8 overflows":   matrixFrame(1<<31, 1<<30, 0),
		"dimension beyond int32":  matrixFrame(0, 1<<40, 0),
		"all ones":                matrixFrame(math.MaxUint64, math.MaxUint64, 8),
		"float64s not whole":      append([]byte{frameFloat64}, make([]byte, 12)...),
		"gob truncated":           gobFrame[:len(gobFrame)-2],
		"gob trailing bytes":      append(append([]byte(nil), gobFrame...), 0),
		"gob tag alone":           {frameGob},
	} {
		if v, err := DecodePayload(frame); err == nil {
			t.Errorf("%s: decoded to %T %v, want an error", name, v, v)
		} else if !strings.HasPrefix(err.Error(), "cluster: decoding payload") {
			t.Errorf("%s: error %q does not name the operation", name, err)
		}
	}
}

// The portable conversion loops are what a big-endian host runs; on this one
// they must agree with the copy, appending to a frame and reading one off a
// stream.
func TestFloat64ConversionPathsAgree(t *testing.T) {
	vals := make([]float64, 0, 1200)
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -math.Pi, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64} {
		for i := 0; i < 170; i++ {
			vals = append(vals, v*float64(i+1))
		}
	}
	fast, portable := appendFloat64s(nil, vals), appendFloat64sPortable(nil, vals)
	if !bytes.Equal(fast, portable) {
		t.Fatalf("appendFloat64s wrote % x, the portable loop % x", fast[:32], portable[:32])
	}
	a, b := make([]float64, len(vals)), make([]float64, len(vals))
	if err := readFloat64s(bytes.NewReader(fast), a, true); err != nil {
		t.Fatal(err)
	}
	if err := readFloat64s(bytes.NewReader(fast), b, false); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Float64bits(a[i]) != math.Float64bits(vals[i]) || math.Float64bits(b[i]) != math.Float64bits(vals[i]) {
			t.Errorf("element %d: got %x and %x, want %x", i, math.Float64bits(a[i]), math.Float64bits(b[i]), math.Float64bits(vals[i]))
		}
	}
}

// The codec's cost is meant to be its output: one buffer per encode, and the
// matrix plus its elements per decode.
func TestPayloadCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	parent := blas.NewMatrix(256, 256)
	view := parent.Sub(64, 64, 128, 128)
	frame, err := EncodePayload(view)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { EncodePayload(view) }); n > 1 {
		t.Errorf("encoding a view allocates %g times, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { DecodePayload(frame) }); n > 2 {
		t.Errorf("decoding a matrix allocates %g times, want 2", n)
	}
}
