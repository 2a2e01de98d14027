package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/taskrt"
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
// stops between messages), and for any one request — envelope and the frames
// it announces — read no more than the message bound and hold no more payload
// than that.
func FuzzRequestReader(f *testing.F) {
	const bound = 1 << 12
	f.Fuzz(func(t *testing.T, stream []byte) {
		src := bytes.NewReader(stream)
		rr := newMessageReader(src, bound)
		for {
			before := src.Len() + rr.r.(*bufio.Reader).Buffered()
			req, err := nextRequest(rr)
			if used := before - src.Len() - rr.r.(*bufio.Reader).Buffered(); used > bound {
				t.Fatalf("one request consumed %d bytes of the stream, bound %d", used, bound)
			}
			if err != nil {
				return
			}
			if req == nil {
				t.Fatal("no request and no error")
			}
			var held int64
			for _, in := range req.received {
				n, ok := frameLen(in.payload)
				if ok && n != in.spec.FrameLen {
					t.Fatalf("a %T framing to %d bytes came out of a frame announced as %d", in.payload, n, in.spec.FrameLen)
				}
				held += in.spec.FrameLen
			}
			if held > bound {
				t.Fatalf("one request's payloads hold %d bytes, bound %d", held, bound)
			}
		}
	})
}

// responseFuzzRun is a run with one invocation pending on a stream that has no
// connection: task 0, attempt 0, which writes a 3×2 matrix (handle 0), three
// float64s (1) and a gob-boxed []int (2), and reads a fourth handle (3).
func responseFuzzRun(t testing.TB) *execStream {
	cl, err := taskrt.NewCodelet("k", taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nodes: []NodeConfig{{Name: "n", Addr: "http://n.invalid"}}}
	st := newRunState(t, cfg, func(rt *taskrt.Runtime) []*taskrt.Task {
		return []*taskrt.Task{{Codelet: cl, Accesses: []taskrt.Access{
			taskrt.RW(rt.NewHandle("m", 48, blas.NewMatrix(3, 2))),
			taskrt.RW(rt.NewHandle("f", 24, make([]float64, 3))),
			taskrt.RW(rt.NewHandle("g", 24, []int{1, 2, 3})),
			taskrt.R(rt.NewHandle("r", 8, blas.NewMatrix(1, 1))),
		}}}
	})
	rec := &inflightRec{members: []member{{task: st.graph.Tasks()[0]}}, node: st.nodes[0],
		req: &ExecRequest{TaskID: 0}, timeout: time.NewTimer(time.Hour)}
	t.Cleanup(func() { rec.timeout.Stop() })
	return &execStream{st: st, node: st.nodes[0], pending: map[int]*inflightRec{0: rec}}
}

// FuzzResponseReader throws arbitrary bytes at the master's end of an execute
// stream, with one invocation pending. The contract is the request reader's —
// never panic, end in an error, no message past its bound — and a returned
// frame is staged only for a handle the pending chain writes, at the length
// that handle's canonical payload frames to.
func FuzzResponseReader(f *testing.F) {
	s := responseFuzzRun(f)
	rec := s.pending[0]
	f.Fuzz(func(t *testing.T, stream []byte) {
		src := bytes.NewReader(stream)
		mr := newMessageReader(src, s.st.respMax)
		for {
			s.pending = map[int]*inflightRec{0: rec}
			before := src.Len() + mr.r.(*bufio.Reader).Buffered()
			resp, got, err := s.next(mr)
			if used := int64(before - src.Len() - mr.r.(*bufio.Reader).Buffered()); used > s.st.respMax {
				t.Fatalf("one response consumed %d bytes of the stream, bound %d", used, s.st.respMax)
			}
			if err != nil {
				return
			}
			for _, wr := range resp.Written {
				switch {
				case got == nil && wr.payload != nil:
					t.Fatalf("a frame was staged for an answer nobody waits for: %+v", wr)
				case got != nil && (wr.HandleID < 0 || wr.HandleID > 2 || wr.FrameLen > max(s.st.returns[wr.HandleID], looseFrame(s.st.graph.Handles()[wr.HandleID]))):
					t.Fatalf("staged %+v; handle bounds %+v", wr, s.st.returns)
				}
			}
		}
	})
}

// fuzzSeeds are the inputs the committed corpora under testdata/fuzz hold;
// WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/cluster/
// writes them out again when the wire changes.
func fuzzSeeds(t testing.TB) (frames, requests, responses map[string][]byte) {
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

	// message is the bytes of the messages written, each an envelope and the
	// frames to put behind it.
	message := func(parts ...any) []byte {
		var buf bytes.Buffer
		mw := newMessageWriter(&buf)
		for i := 0; i < len(parts); i += 2 {
			if err := mw.write(parts[i], parts[i+1].([]any)); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	none := []any(nil)
	spec := func(id int, n int64, inline []byte) AccessSpec {
		return AccessSpec{HandleID: id, Name: "A", Bytes: 48, Mode: 1, Version: 2, FrameLen: n, Inline: inline}
	}
	request := func(id int, a ...AccessSpec) *ExecRequest {
		return &ExecRequest{TaskID: id, Codelet: "dgemm", Label: "t", Flops: 1e6, Parents: []int{id}, Accesses: a}
	}
	tileLen := int64(len(tile))
	// A chain: the head, and two steps behind it that name the versions the
	// steps before them leave.
	step := func(id int, ver uint64, n int64) ExecStep {
		return ExecStep{TaskID: id, Codelet: "dgemm", Label: "t", Flops: 1e6, Parents: []int{id - 1},
			Accesses: []AccessSpec{{HandleID: 9, Name: "C", Bytes: 48, Mode: 3, Version: ver, FrameLen: n}}}
	}
	chain := message(newExecRequest([]ExecStep{step(1, 2, tileLen), step(2, 3, 0), step(3, 4, 0)}), []any{m})
	two := message(request(0, spec(0, tileLen, nil)), []any{m}, request(1, spec(1, tileLen, nil), spec(2, 0, nil)), []any{rawFrame(tile)})
	requests = map[string][]byte{
		"two-requests":       two,
		"torn":               two[:len(two)-9], // ends inside the second request's frame
		"torn-envelope":      two[:len(two)-len(tile)-9],
		"inline-in-envelope": message(request(0, spec(0, 0, tile)), none, request(1, spec(1, 0, tile)), none),
		"chain":              chain,
		"chain-torn":         chain[:len(chain)-len(tile)-9], // ends inside the last step
		"over-bound":         message(request(0, spec(0, 0, make([]byte, 1<<13))), none),
		"frames-over-bound":  message(request(0, spec(0, 1<<13, nil)), []any{rawFrame(make([]byte, 1<<13))}),
		"announced-not-sent": message(request(0, spec(0, 1<<40, nil)), none),
		"negative-length":    message(request(0, spec(0, -7, nil)), []any{m}),
		"length-not-shape":   message(request(0, spec(0, tileLen+8, nil)), []any{m, rawFrame(make([]byte, 8))}),
		"inline-and-frame":   message(request(0, spec(0, tileLen, tile)), []any{m}),
		"huge-length":        {0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3},
		"empty":              {},
		"junk":               []byte("POST /v1/execute HTTP/1.1\r\n\r\n"),
	}

	floats, ints := []float64{1, 2, 3}, enc([]int{4, 5, 6})
	written := func(id int, n int64) Written { return Written{HandleID: id, Version: 1, FrameLen: n} }
	response := func(task int, wr ...Written) *ExecResponse {
		return &ExecResponse{TaskID: task, OK: true, Ran: []StepRun{{Seconds: 1e-3, Arch: "x86"}}, Written: wr}
	}
	all := message(response(0, written(0, tileLen), written(1, 25), written(2, int64(len(ints)))), []any{m, floats, rawFrame(ints)})
	responses = map[string][]byte{
		"three-frames":    all,
		"torn":            all[:len(all)-len(ints)-30], // ends inside the matrix
		"torn-envelope":   all[:20],
		"stale":           message(response(7, written(0, tileLen)), []any{m}, response(0), none),
		"unknown-handle":  message(response(0, written(99, tileLen)), []any{m}),
		"handle-read":     message(response(0, written(3, 25)), []any{blas.NewMatrix(1, 1)}),
		"over-long":       message(response(0, written(0, 1<<40)), none),
		"short":           message(response(0, written(0, tileLen-8)), []any{rawFrame(tile[:tileLen-8])}),
		"negative-length": message(response(0, written(1, -1)), none),
		"no-frame":        message(response(0, written(1, 0)), none),
		"wrong-shape":     message(response(0, written(0, tileLen)), []any{blas.NewMatrix(2, 3)}),
		"need-data":       message(&ExecResponse{NeedData: []int{0, 1}}, none),
		"huge-length":     {0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3},
		"empty":           {},
		"junk":            []byte("HTTP/1.1 200 OK\r\n\r\n"),
	}
	return frames, requests, responses
}

// The seeds behave as named: the corpus is not a pile of rejects.
func TestFuzzSeedsCoverBothOutcomes(t *testing.T) {
	frames, requests, responses := fuzzSeeds(t)
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

	// Each request seed: how many requests read whole, how many payloads came
	// with them, and whether the stream then ended cleanly.
	for name, want := range map[string]struct {
		requests, payloads int
		clean              bool
	}{
		"two-requests": {2, 2, true}, "torn": {1, 1, false}, "torn-envelope": {1, 1, false},
		"inline-in-envelope": {2, 0, true}, "chain": {1, 1, true}, "chain-torn": {0, 0, false},
		"over-bound": {0, 0, false}, "frames-over-bound": {0, 0, false}, "announced-not-sent": {0, 0, false},
		"negative-length": {0, 0, false}, "length-not-shape": {0, 0, false}, "inline-and-frame": {0, 0, false},
		"huge-length": {0, 0, false}, "empty": {0, 0, true}, "junk": {0, 0, false},
	} {
		rr := newMessageReader(bytes.NewReader(requests[name]), 1<<12)
		n, payloads := 0, 0
		var err error
		for {
			var req *ExecRequest
			if req, err = nextRequest(rr); err != nil {
				break
			}
			n++
			payloads += len(req.received)
		}
		if n != want.requests || payloads != want.payloads || (err == io.EOF) != want.clean {
			t.Errorf("request seed %s: %d requests with %d payloads, then %v; want %d with %d, clean end %v",
				name, n, payloads, err, want.requests, want.payloads, want.clean)
		}
	}
	if req, err := nextRequest(newMessageReader(bytes.NewReader(requests["chain"]), 1<<12)); err != nil || len(req.Next) != 2 || req.Next[1].Accesses[0].Version != 4 {
		t.Errorf("chain: decoded %+v, %v; want the head and two steps behind it", req, err)
	}
	if len(requests) != 15 {
		t.Errorf("%d request seeds, 15 checked", len(requests))
	}

	// Each response seed: how many responses read whole, how many frames were
	// staged for the pending invocation, and the error that ended the stream.
	for name, want := range map[string]struct {
		responses, staged int
		err               string
	}{
		"three-frames": {1, 3, "EOF"}, "torn": {0, 0, "unexpected EOF"}, "torn-envelope": {0, 0, "unexpected EOF"},
		"stale": {2, 0, "EOF"}, "unknown-handle": {0, 0, "unknown handle 99"}, "handle-read": {0, 0, "does not write"},
		"over-long": {0, 0, "announces 1099511627776 bytes"}, "short": {0, 0, "announces 57 bytes"},
		"negative-length": {0, 0, "announces -1 bytes"}, "no-frame": {0, 0, "announces 0 bytes"},
		"wrong-shape": {1, 1, "EOF"}, // the right length: the shape is the apply's to refuse
		"need-data":   {1, 0, "EOF"}, "huge-length": {0, 0, ""}, "empty": {0, 0, "EOF"}, "junk": {0, 0, ""},
	} {
		s := responseFuzzRun(t)
		mr := newMessageReader(bytes.NewReader(responses[name]), s.st.respMax)
		n, staged := 0, 0
		var err error
		for {
			var resp *ExecResponse
			if resp, _, err = s.next(mr); err != nil {
				break
			}
			n++
			for _, wr := range resp.Written {
				if wr.payload != nil {
					staged++
				}
			}
		}
		if n != want.responses || staged != want.staged || !strings.Contains(err.Error(), want.err) {
			t.Errorf("response seed %s: %d responses, %d frames staged, then %v; want %d, %d and an error containing %q",
				name, n, staged, err, want.responses, want.staged, want.err)
		}
	}
	if len(responses) != 15 {
		t.Errorf("%d response seeds, 15 checked", len(responses))
	}
}

func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to rewrite testdata/fuzz from fuzzSeeds")
	}
	frames, requests, responses := fuzzSeeds(t)
	for target, seeds := range map[string]map[string][]byte{
		"FuzzDecodePayload": frames, "FuzzRequestReader": requests, "FuzzResponseReader": responses,
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
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
