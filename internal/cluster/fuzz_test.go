package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blas"
)

// FuzzDecodePayload throws arbitrary bytes at the payload frame decoder, which
// reads them off the network. The contract: never panic; a raw frame (matrix,
// float64s, bytes) that decodes is the canonical encoding of what it decoded
// to, so it allocated no more than its own length; everything else is an
// error. Seed corpus in testdata/fuzz/FuzzDecodePayload (replayed by every
// plain `go test`; `make fuzz` explores from it).
func FuzzDecodePayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodePayload(data)
		if err != nil {
			return
		}
		if data[0] == frameGob {
			return // gob's own encoding is not canonical
		}
		again, err := EncodePayload(v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("a %d-byte frame decoded to a %T that re-encodes to %d different bytes", len(data), v, len(again))
		}
	})
}

// FuzzRequestReader throws arbitrary bytes at the worker's end of an execute
// stream. The contract: never panic, end in an error (io.EOF for a stream that
// stops between messages), and read no more than the message bound for any
// one request.
func FuzzRequestReader(f *testing.F) {
	const bound = 1 << 12
	f.Fuzz(func(t *testing.T, stream []byte) {
		src := bytes.NewReader(stream)
		rr := newRequestReader(src, bound)
		for {
			before := src.Len()
			req, err := rr.next()
			if used := before - src.Len(); used > bound {
				t.Fatalf("one request consumed %d bytes of the stream, bound %d", used, bound)
			}
			if err != nil {
				return
			}
			if req == nil {
				t.Fatal("no request and no error")
			}
		}
	})
}

// fuzzSeeds are the inputs the committed corpora under testdata/fuzz hold;
// WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/cluster/
// writes them out again when the wire changes.
func fuzzSeeds(t testing.TB) (frames, streams map[string][]byte) {
	t.Helper()
	enc := func(v any) []byte {
		frame, err := EncodePayload(v)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	m := blas.NewMatrix(3, 2)
	m.FillRandom(1)
	tile := enc(m)
	frames = map[string][]byte{
		"matrix":           tile,
		"matrix-view":      enc(blas.NewMatrix(4, 4).Sub(1, 1, 2, 2)),
		"matrix-empty":     enc(blas.NewMatrix(0, 7)),
		"matrix-truncated": tile[:len(tile)-5],
		"matrix-trailing":  append(append([]byte(nil), tile...), 1, 2, 3),
		"matrix-overflow":  matrixFrame(1<<32, 1<<32, 16),
		"float64s":         enc([]float64{1, 2.5, -3}),
		"bytes":            enc([]byte("payload")),
		"gob-ints":         enc([]int{1, 2, 3}),
		"gob-string":       enc("s"),
		"empty":            {},
		"unknown-tag":      []byte("Zzz"),
	}
	var two bytes.Buffer
	ge := gob.NewEncoder(&two)
	for id := 0; id < 2; id++ {
		err := ge.Encode(&ExecRequest{TaskID: id, Codelet: "dgemm", Label: "t", Flops: 1e6, Parents: []int{id},
			Accesses: []AccessSpec{{HandleID: id, Name: "A", Bytes: 48, Mode: 1, Version: 2, Inline: tile}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	var big bytes.Buffer
	if err := gob.NewEncoder(&big).Encode(&ExecRequest{Accesses: []AccessSpec{{Inline: make([]byte, 1<<13)}}}); err != nil {
		t.Fatal(err)
	}
	// A chain: the head, and two steps behind it that name the versions the
	// steps before them leave.
	var chain bytes.Buffer
	step := func(id int, ver uint64, inline []byte) ExecStep {
		return ExecStep{TaskID: id, Codelet: "dgemm", Label: "t", Flops: 1e6, Parents: []int{id - 1},
			Accesses: []AccessSpec{{HandleID: 9, Name: "C", Bytes: 48, Mode: 3, Version: ver, Inline: inline}}}
	}
	if err := gob.NewEncoder(&chain).Encode(newExecRequest([]ExecStep{step(1, 2, tile), step(2, 3, nil), step(3, 4, nil)})); err != nil {
		t.Fatal(err)
	}
	streams = map[string][]byte{
		"two-requests": two.Bytes(),
		"torn":         two.Bytes()[:two.Len()-9],
		"chain":        chain.Bytes(),
		"chain-torn":   chain.Bytes()[:chain.Len()-9], // ends inside the last step
		"over-bound":   big.Bytes(),
		"huge-length":  {0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3},
		"empty":        {},
		"junk":         []byte("POST /v1/execute HTTP/1.1\r\n\r\n"),
	}
	return frames, streams
}

// The seeds behave as named: the corpus is not a pile of rejects.
func TestFuzzSeedsCoverBothOutcomes(t *testing.T) {
	frames, streams := fuzzSeeds(t)
	for _, name := range []string{"matrix", "matrix-view", "matrix-empty", "float64s", "bytes", "gob-ints", "gob-string"} {
		if _, err := DecodePayload(frames[name]); err != nil {
			t.Errorf("frame seed %s: %v", name, err)
		}
	}
	for _, name := range []string{"matrix-truncated", "matrix-trailing", "matrix-overflow", "empty", "unknown-tag"} {
		if v, err := DecodePayload(frames[name]); err == nil {
			t.Errorf("frame seed %s decoded to %T", name, v)
		}
	}
	count := func(stream []byte) (n int, err error) {
		rr := newRequestReader(bytes.NewReader(stream), 1<<12)
		for {
			if _, err = rr.next(); err != nil {
				return n, err
			}
			n++
		}
	}
	if n, err := count(streams["two-requests"]); n != 2 || err != io.EOF {
		t.Errorf("two-requests: %d requests, then %v", n, err)
	}
	if n, err := count(streams["torn"]); n != 1 || err == io.EOF || err == nil {
		t.Errorf("torn: %d requests, then %v", n, err)
	}
	if n, err := count(streams["chain"]); n != 1 || err != io.EOF {
		t.Errorf("chain: %d requests, then %v", n, err)
	}
	if req, err := newRequestReader(bytes.NewReader(streams["chain"]), 1<<12).next(); err != nil || len(req.Next) != 2 || req.Next[1].Accesses[0].Version != 4 {
		t.Errorf("chain: decoded %+v, %v; want the head and two steps behind it", req, err)
	}
	if n, err := count(streams["chain-torn"]); n != 0 || err == io.EOF || err == nil {
		t.Errorf("chain-torn: %d requests, then %v", n, err)
	}
	if n, err := count(streams["over-bound"]); n != 0 || err == nil {
		t.Errorf("over-bound: %d requests, then %v", n, err)
	}
}

func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to rewrite testdata/fuzz from fuzzSeeds")
	}
	frames, streams := fuzzSeeds(t)
	for target, seeds := range map[string]map[string][]byte{"FuzzDecodePayload": frames, "FuzzRequestReader": streams} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
