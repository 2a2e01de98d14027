// Package cluster executes taskrt task graphs across processes: a Master
// runs a Runtime's sealed Graph by dispatching codelet invocations over HTTP
// to Workers, which execute them against locally registered implementations.
//
// This extends the paper's platform-description-driven scheduling to the
// distributed level: each worker node is described by its own PDL document
// (registered with pdlserved alongside a worker lease), the master's
// placement uses per-(codelet, arch) perfmodels plus declared-interconnect
// transfer modelling — the same earliest-finish-time rule as the in-process
// dmda dispatcher (internal/placement), promoted to node granularity — and
// the fault-tolerance layer (retry, blacklist, rejoin) is likewise lifted from
// worker goroutines to whole nodes.
//
// Unit of work: an invocation is a chain — a task and the linear run of the
// graph behind it, each next member being the previous one's only dependent
// and waiting on nothing else (for tiled GEMM, the k-steps of one C tile).
// The master forms the chain when it places the head, prices it as one bid
// and ships it as one ExecRequest; the worker runs the steps in order on one
// held slot and answers once. A single task is the chain of length one
// through the same code. A node is the paper's Hybrid PU seen from above: it
// is handed a sub-DAG and reports only that sub-DAG's outputs.
//
// Ownership: the master owns data truth. Canonical payloads live in the
// submitted Runtime's handles; workers hold version-tagged caches. A chain's
// writes take effect only when its one response is applied on the master, so
//
//   - handle versions, done flags and dependents advance for the whole chain
//     at once or not at all: the versions between a chain's first and last
//     write never exist on the master and never cross the link;
//   - every member id maps to the chain's one in-flight record, and a result
//     is dropped when its head is already done or in flight under another
//     record — first writer wins, which makes resubmission after node failure
//     exactly-once: a late result from a presumed-dead node either applies
//     first (the resubmitted copy is dropped) or is dropped itself;
//   - an in-band failure at step k costs member k an attempt, requeues the
//     head and forgets the node's residency of every handle any step writes;
//     NeedData — some step named a version the worker lacks, so nothing ran —
//     forgets its residency of every handle the chain touches and redispatches
//     the head at once, whole; a node's death requeues the heads it held, and
//     chains form again from the master's state as it is then;
//   - a chain holds one credit and one placement.Candidate.Charge on its
//     node, so Σ node backlog == Σ Charge of in-flight records; the straggler
//     residual is taken per member against that member's own estimate, and
//     each member gets its own trace.Place.
//
// The cost of a chain is what a node's death loses: at most one chain of
// kernel work per credit.
//
// Residency follows stream order. The master writes each node's requests in
// dispatch order (one sender per node draining a FIFO) and the worker admits a
// request's payloads into its cache as it reads the request, before
// reading the next. So the master records "node holds handle at version" the
// moment it dispatches the payload inline, and a later request — even one
// dispatched while the first is still in flight — refers to it by version
// alone. The record is a belief: a worker that lacks a referenced version
// (eviction, restart, a request lost with its stream) answers NeedData and
// the master re-inlines.
//
// Checkout: a worker removes a write-mode operand from its cache when it
// resolves the request and puts it back, at the chain's final version, only
// when every step succeeded. While a kernel mutates the object in place, and
// after it failed, timed out or was abandoned with a broken stream, no
// request can resolve it: a retry by reference gets NeedData and canonical
// bytes, never a half-written or twice-applied object. The object is back in
// the cache before its frame is written, from that same memory, on the
// response, and nothing writes to it meanwhile: a request checks it out only by
// naming the chain's final version, which the master names only after applying
// a response that carried it — this one, read to its last byte, so the write
// is over; or a copy of the chain run elsewhere, and then the master does not
// believe this node holds that version and sends the payload along, a new
// object. A retry of the chain here names the version before its writes, which
// bounces. The worker also enforces what this infers: a checkout waits for the
// end of the response write the entry was announced on (cacheEntry.sent).
//
// Wire: the master holds one POST /v1/execute per node open for the whole run
// and uses it in both directions at once — ExecRequest messages go up the
// request body, ExecResponse messages come down the response body. A message
// is an envelope and the payload frames it announces: the gob value — one
// encoder/decoder per direction, so gob's type descriptors cross the
// connection once per node — states each frame's length (AccessSpec.FrameLen,
// Written.FrameLen) and the frames follow it in that order, outside gob. A
// frame (layFrame) is a tag byte and, for matrices and float64 slices, the
// shape and the raw little-endian elements: the sender writes it from the
// payload's own memory (a strided view gathered into the stream's scratch
// first), the worker reads the elements into the matrix it then caches. The
// master reads a returned frame into a staging buffer and copies it into the
// handle's storage when the loop applies the result, never directly: a frame
// torn mid-body, or a result that loses first-writer-wins, must leave the
// canonical bytes as they were. Each end bounds a message before allocating for
// it: the worker holds envelope plus frames to MaxBodyBytes; the master holds a
// response to a bound derived from the run's graph and a returned frame to the
// frame length of the canonical payload of a handle the answered chain writes.
// Responses come back in the order chains finish and are matched to requests
// by the head's (TaskID, Attempt). A stream that ends or breaks with requests
// unanswered — inside a frame included — fails each of them once with a
// transport error; the node's next dispatch opens a fresh stream. A one-shot
// POST carrying a single request is a stream of length one, and a client that
// speaks bare gob may put each frame inside the envelope (AccessSpec.Inline)
// and ignore what follows the response's.
package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/blas"
	"repro/internal/trace"
)

// HTTP surface of a worker.
const (
	PathExecute = "/v1/execute"
	PathInfo    = "/v1/info"
	PathHealthz = "/healthz"
	// PathTrace serves the worker's span buffer as JSONL (node + epoch
	// metadata included). `?drain=1` atomically hands over and clears the
	// buffer — the pull-side counterpart of the spans piggybacked on execute
	// responses, for collectors that want history without running tasks.
	PathTrace = "/v1/trace"
	// PathMetrics serves the worker's Prometheus exposition; pdlserved's
	// fleet scraper federates the taskrt_worker_* families it finds here.
	PathMetrics = "/metrics"

	// ContentTypeGob marks the execute request and response bodies: a gob
	// stream of ExecRequest (resp. ExecResponse) values, each followed by the
	// payload frames it announces. gob carries the envelope — ids, versions,
	// spans — and not the frames: it would spend a varint per float64 and a
	// copy per frame (see layFrame).
	ContentTypeGob = "application/x-gob"
)

// ExecRequest is one invocation shipped to a worker: a chain of steps run in
// order on one slot. The head step is spelled out in the request's own fields
// (a one-task invocation is just those); Next holds the steps behind it.
// TaskID and Attempt of the head identify the invocation on the stream.
type ExecRequest struct {
	TaskID  int
	Attempt int
	Codelet string
	Label   string
	Flops   float64
	// Parents are the task's dependency ids, forwarded so worker-side trace
	// spans carry the causal edges pdltrace needs to reconstruct a
	// cluster-wide critical path after merging.
	Parents  []int
	Accesses []AccessSpec
	Next     []ExecStep

	received []inlinePayload // on the worker: the payloads that followed the envelope, each beside its spec
}

// ExecStep is one codelet execution of a chain, with the fields ExecRequest
// gives its head. A step's Version of a handle an earlier step writes is that
// step's output: the master's version plus the writes before it.
type ExecStep struct {
	TaskID   int
	Attempt  int
	Codelet  string
	Label    string
	Flops    float64
	Parents  []int
	Accesses []AccessSpec
}

// steps returns the chain in execution order, head first.
func (r *ExecRequest) steps() []ExecStep {
	steps := make([]ExecStep, 0, 1+len(r.Next))
	steps = append(steps, ExecStep{TaskID: r.TaskID, Attempt: r.Attempt, Codelet: r.Codelet, Label: r.Label,
		Flops: r.Flops, Parents: r.Parents, Accesses: r.Accesses})
	return append(steps, r.Next...)
}

// newExecRequest is the request that carries the steps, a chain in execution
// order (at least one step); the head's Accesses stay the same array.
func newExecRequest(steps []ExecStep) *ExecRequest {
	h := steps[0]
	return &ExecRequest{TaskID: h.TaskID, Attempt: h.Attempt, Codelet: h.Codelet, Label: h.Label,
		Flops: h.Flops, Parents: h.Parents, Accesses: h.Accesses, Next: steps[1:]}
}

// AccessSpec is one data access of a step. A positive FrameLen announces the
// payload as a frame of that many bytes behind the envelope, in access order,
// which the worker caches at Version before resolving anything; with none the
// worker must already hold (HandleID, Version) — cached, or written by an
// earlier step of the same chain — and responding NeedData makes the master
// re-inline: a cache miss, never a fault. Inline is the frame carried inside
// the envelope instead, as a bare-gob one-shot client sends it: accepted by
// the worker, never sent by the master.
type AccessSpec struct {
	HandleID int
	Name     string
	Bytes    int64
	Mode     int // taskrt.AccessMode numeric value
	Version  uint64
	FrameLen int64
	Inline   []byte
}

// inlinePayload is a payload that travels with a request, beside its spec
// there: the master's still to be written after it, the worker's just read.
type inlinePayload struct {
	spec    *AccessSpec
	payload any
}

// Written is one produced payload: the contents of a handle the chain wrote,
// at the version its last writing step leaves it — the version the request
// named plus one per writing step (writers are serialised by the task graph,
// so successor versions are deterministic). Its frame, FrameLen bytes, follows
// the response in Written's order.
type Written struct {
	HandleID int
	Version  uint64
	FrameLen int64

	payload any // on the master: what the frame held, staged until the chain's result is applied
}

// ExecResponse reports one invocation's outcome. OK means every step ran;
// otherwise NeedData or Error says why none of the chain's writes exist.
type ExecResponse struct {
	TaskID  int
	Attempt int
	OK      bool
	Error   string
	// FailedStep is the index in the chain of the step Error is about.
	FailedStep int
	// NeedData lists handle ids referenced by version but absent from the
	// worker's cache; the master re-inlines and redispatches.
	NeedData []int
	// Written holds each handle the chain wrote once, in first-write order.
	Written []Written
	// Ran describes each step that ran to completion, in chain order.
	Ran  []StepRun
	Unit string // executing lane, for merged traces ("worker0", ...)

	// Spans are the trace events this invocation recorded on the worker (one
	// execution span per step run), with times as offsets from the worker's
	// epoch. Shipping them on the response gives the master a live, complete
	// span stream without a second round-trip.
	Spans []trace.Event
	// EpochMicros is the worker process's start time (µs since the Unix
	// epoch): the time base of the span offsets, which trace.Merge uses to
	// align per-node timelines into one.
	EpochMicros int64

	frames []any // on the worker: the payloads Written announces
}

// StepRun is one completed kernel execution: its time and the architecture of
// the implementation the worker chose, which keys the perfmodel it feeds.
type StepRun struct {
	Seconds float64
	Arch    string
}

// InfoResponse describes a worker to masters (GET /v1/info, JSON).
type InfoResponse struct {
	Name     string   `json:"name"`
	Archs    []string `json:"archs"`
	Workers  int      `json:"workers"`
	Codelets []string `json:"codelets"`
}

// RegisterPayloadType registers a concrete payload type for the gob fallback
// of the payload codec, as encoding/gob requires for interface-typed values.
// []int and the scalar types are pre-registered; *blas.Matrix, []float64 and
// []byte never reach gob (see layFrame).
func RegisterPayloadType(v any) { gob.Register(v) }

func init() {
	RegisterPayloadType([]int(nil))
	RegisterPayloadType(float64(0))
	RegisterPayloadType(int(0))
	RegisterPayloadType("")
}

// A payload frame is one tag byte and a body. The dense types ship as raw
// little-endian bytes; everything else rides in a gob box behind its own tag.
const (
	frameMatrix  = 'M' // rows, cols as uint64, then rows×cols float64s, row-major and compact
	frameFloat64 = 'F' // float64s to the end of the frame
	frameBytes   = 'B' // bytes to the end of the frame
	frameGob     = 'G' // gob(payloadBox)

	matrixHeader = 1 + 8 + 8
)

// payloadBox wraps the interface value so gob carries the concrete type.
type payloadBox struct{ V any }

// rawFrame is a frame already built, written as it is: what a gob-boxed
// payload becomes before its length can be announced.
type rawFrame []byte

// frameLen is the length of a dense payload's frame, known from its shape;
// false for a value whose frame has to be built to be measured.
func frameLen(v any) (int64, bool) {
	switch p := v.(type) {
	case *blas.Matrix:
		if p == nil || p.Rows < 0 || p.Cols < 0 {
			return 0, false
		}
		return matrixHeader + 8*int64(p.Rows)*int64(p.Cols), true
	case []float64:
		return 1 + 8*int64(len(p)), true
	case []byte:
		return 1 + int64(len(p)), true
	}
	return 0, false
}

// announce returns the length an envelope states for v's frame and what to
// hand the message writer after it: v itself when its shape says the length,
// otherwise the frame, built now.
func announce(v any) (any, int64, error) {
	if n, ok := frameLen(v); ok {
		return v, n, nil
	}
	frame, err := EncodePayload(v)
	return rawFrame(frame), int64(len(frame)), err
}

// layFrame is the one frame writer: it lays v's frame out as two runs of
// bytes, head then body. Where the payload's memory already is the wire form
// — a compact matrix or a slice, on a little-endian host — body is that memory
// and head only the tag and shape: writing the frame copies nothing. Otherwise
// the whole frame is built in head: a Sub() view ships only its own rows×cols
// elements, gathered row by row. head is appended to buf[:0], so passing the
// last head back reuses its memory.
func layFrame(v any, buf []byte) (head, body []byte, err error) {
	switch p := v.(type) {
	case *blas.Matrix:
		if p == nil || p.Rows < 0 || p.Cols < 0 {
			return nil, nil, fmt.Errorf("cluster: encoding payload: invalid matrix %v", p)
		}
		head = append(buf[:0], frameMatrix)
		head = binary.LittleEndian.AppendUint64(head, uint64(p.Rows))
		head = binary.LittleEndian.AppendUint64(head, uint64(p.Cols))
		if p.Stride == p.Cols && hostLittleEndian {
			return head, float64Bytes(p.Data[:p.Rows*p.Cols]), nil
		}
		head = slices.Grow(head, 8*p.Rows*p.Cols)
		for i := 0; i < p.Rows; i++ {
			head = appendFloat64s(head, p.Data[i*p.Stride:i*p.Stride+p.Cols])
		}
		return head, nil, nil
	case []float64:
		if hostLittleEndian {
			return append(buf[:0], frameFloat64), float64Bytes(p), nil
		}
		return appendFloat64s(append(buf[:0], frameFloat64), p), nil, nil
	case []byte:
		return append(buf[:0], frameBytes), p, nil
	case rawFrame:
		return buf[:0], p, nil
	}
	box := bytes.NewBuffer(append(buf[:0], frameGob))
	if err := gob.NewEncoder(box).Encode(payloadBox{V: v}); err != nil {
		return nil, nil, fmt.Errorf("cluster: encoding payload: %w", err)
	}
	return box.Bytes(), nil, nil
}

// EncodePayload serialises a handle payload into a frame of its own: layFrame's
// two runs in one buffer.
func EncodePayload(v any) ([]byte, error) {
	n, _ := frameLen(v)
	head, body, err := layFrame(v, make([]byte, 0, n))
	return append(head, body...), err
}

// DecodePayload reverses EncodePayload: the frame reader over bytes in memory
// (pooled, so that decoding allocates what it returns and nothing else).
func DecodePayload(data []byte) (any, error) {
	mr := memReaders.Get().(*messageReader)
	defer memReaders.Put(mr)
	src := mr.r.(*bytes.Reader)
	src.Reset(data)
	defer src.Reset(nil)
	mr.left = int64(len(data))
	return mr.frame(mr.left)
}

var memReaders = sync.Pool{New: func() any { return &messageReader{r: new(bytes.Reader)} }}

// messageReader reads one direction of an execute stream: gob envelopes, and
// after each the payload frames it announces, every message — frames included
// — held to max bytes. It counts bytes as they are consumed from the buffered
// reader under it and is gob's io.ByteReader, so gob adds no buffer of its own
// and neither envelopes nor frames are read ahead of on another's budget.
type messageReader struct {
	r interface {
		io.Reader
		io.ByteReader
	}
	dec       *gob.Decoder
	max, left int64
	shape     [matrixHeader - 1]byte  // frame's scratch: a buffer handed to an io.Reader cannot live on the stack
	floats    func(n int64) []float64 // when set, finds a payload's elements memory in place of make
}

func newMessageReader(r io.Reader, max int64) *messageReader {
	mr := &messageReader{r: bufio.NewReader(r), max: max}
	mr.dec = gob.NewDecoder(mr)
	return mr
}

var errMessageTooLarge = errors.New("message exceeds its byte bound")

func (mr *messageReader) Read(p []byte) (int, error) {
	if mr.left <= 0 {
		return 0, errMessageTooLarge
	}
	if int64(len(p)) > mr.left {
		p = p[:mr.left]
	}
	n, err := mr.r.Read(p)
	mr.left -= int64(n)
	return n, err
}

func (mr *messageReader) ReadByte() (byte, error) {
	if mr.left <= 0 {
		return 0, errMessageTooLarge
	}
	b, err := mr.r.ReadByte()
	if err == nil {
		mr.left--
	}
	return b, err
}

// envelope starts the next message and decodes its gob value into v: io.EOF
// at a clean end of the stream.
func (mr *messageReader) envelope(v any) error {
	mr.left = mr.max
	return mr.dec.Decode(v)
}

// claim checks an announced frame length against what is left of the
// message's budget, before anything is allocated for it.
func (mr *messageReader) claim(n int64) error {
	if n < 1 {
		return fmt.Errorf("cluster: decoding payload: a frame of %d bytes", n)
	}
	if n > mr.left {
		return errMessageTooLarge
	}
	return nil
}

// skip reads past an n-byte frame nobody wants.
func (mr *messageReader) skip(n int64) error {
	if err := mr.claim(n); err != nil {
		return err
	}
	_, err := io.CopyN(io.Discard, mr, n)
	return err
}

// frame is the one frame reader: it reads an n-byte frame into a new payload,
// a matrix's or slice's elements straight into the memory it keeps. Frames
// arrive from the network, so every malformed one — unknown tag, short header,
// a shape whose rows×cols×8 is not exactly the body's length, trailing bytes —
// is an error, and the shape is checked against the announced length, and that
// against the budget, before anything is allocated.
func (mr *messageReader) frame(n int64) (any, error) {
	fail := func(format string, args ...any) (any, error) {
		return nil, fmt.Errorf("cluster: decoding payload: "+format, args...)
	}
	if err := mr.claim(n); err != nil {
		return nil, err
	}
	tag, err := mr.ReadByte()
	if err != nil {
		return fail("%w", err)
	}
	body := n - 1
	switch tag {
	case frameMatrix:
		if n < matrixHeader {
			return fail("matrix header truncated at %d bytes", n)
		}
		if _, err := io.ReadFull(mr, mr.shape[:]); err != nil {
			return fail("%w", err)
		}
		rows, cols := binary.LittleEndian.Uint64(mr.shape[:]), binary.LittleEndian.Uint64(mr.shape[8:])
		body = n - matrixHeader
		// Both dimensions fit 31 bits, so their product cannot overflow; an
		// empty matrix keeps its other dimension.
		if body%8 != 0 || rows > math.MaxInt32 || cols > math.MaxInt32 || rows*cols != uint64(body/8) {
			return fail("%d×%d matrix in a %d-byte body", rows, cols, body)
		}
		data, err := mr.float64s(body / 8)
		if err != nil {
			return nil, err
		}
		return &blas.Matrix{Rows: int(rows), Cols: int(cols), Stride: int(cols), Data: data}, nil
	case frameFloat64:
		if body%8 != 0 {
			return fail("%d-byte body is not whole float64s", body)
		}
		return mr.float64s(body / 8)
	case frameBytes, frameGob:
		out := make([]byte, body)
		if _, err := io.ReadFull(mr, out); err != nil {
			return fail("%w", err)
		}
		if tag == frameBytes {
			return out, nil
		}
		r := bytes.NewReader(out)
		var box payloadBox
		if err := gob.NewDecoder(r).Decode(&box); err != nil {
			return fail("%w", err)
		}
		if r.Len() != 0 {
			return fail("%d trailing bytes", r.Len())
		}
		return box.V, nil
	}
	return fail("unknown frame tag %#x", tag)
}

// float64s reads n elements of the frame being read into new memory, or into
// mr.floats'.
func (mr *messageReader) float64s(n int64) ([]float64, error) {
	var dst []float64
	if mr.floats != nil {
		dst = mr.floats(n)
	} else {
		dst = make([]float64, n)
	}
	if err := readFloat64s(mr, dst, hostLittleEndian); err != nil {
		return nil, fmt.Errorf("cluster: decoding payload: %w", err)
	}
	return dst, nil
}

// readFloat64s fills dst with little-endian float64s from r: straight into
// dst's memory where that is the wire form (native), through encoding/binary's
// scratch buffer on a big-endian host.
func readFloat64s(r io.Reader, dst []float64, native bool) error {
	if native {
		_, err := io.ReadFull(r, float64Bytes(dst))
		return err
	}
	return binary.Read(r, binary.LittleEndian, dst)
}

// hostLittleEndian says float64s sit in memory the way the frame lays them
// out, so moving them is a copy; elsewhere each is converted.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float64Bytes views the slice's own memory as bytes.
func float64Bytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 8*len(f))
}

func appendFloat64s(dst []byte, src []float64) []byte {
	if hostLittleEndian {
		return append(dst, float64Bytes(src)...)
	}
	return appendFloat64sPortable(dst, src)
}

func appendFloat64sPortable(dst []byte, src []float64) []byte {
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// messageWriter writes one direction of an execute stream. One writer at a
// time: a message is several writes.
type messageWriter struct {
	bw      *bufio.Writer
	enc     *gob.Encoder
	scratch []byte // the last frame that had to be built, reused for the next
}

func newMessageWriter(w io.Writer) *messageWriter {
	bw := bufio.NewWriter(w)
	return &messageWriter{bw: bw, enc: gob.NewEncoder(bw)}
}

// write sends one message — the envelope, then the payloads whose frame
// lengths it announces (see announce), in order — and flushes it. An error
// leaves the peer's reader out of step: the stream is unusable after.
func (mw *messageWriter) write(envelope any, frames []any) error {
	if err := mw.enc.Encode(envelope); err != nil {
		return err
	}
	for _, v := range frames {
		head, body, err := layFrame(v, mw.scratch)
		if err != nil {
			return err
		}
		mw.scratch = head
		mw.bw.Write(head) // a failed write is Flush's to report
		mw.bw.Write(body)
	}
	return mw.bw.Flush()
}

// ApplyPayload merges a received payload into an existing one, returning
// the value to store. Matrices and slices copy element-wise into dst so
// aliasing is preserved — the master's canonical payloads are often Sub()
// views into one parent matrix, and replacing the view would detach the
// tile from the matrix it verifies against. A kernel cannot resize an operand
// through TaskContext.Data, so over any of the three dense types a src of
// another type, shape or length is a protocol error, never a replacement. Any
// other dst is replaced (nil means the handle had no local payload yet).
func ApplyPayload(dst, src any) (any, error) {
	mismatch := func() (any, error) { return nil, fmt.Errorf("cluster: applying %T over %T of another shape", src, dst) }
	switch d := dst.(type) {
	case *blas.Matrix:
		s, ok := src.(*blas.Matrix)
		if !ok || s.Rows != d.Rows || s.Cols != d.Cols {
			return mismatch()
		}
		for i := 0; i < d.Rows; i++ {
			copy(d.Data[i*d.Stride:i*d.Stride+d.Cols], s.Data[i*s.Stride:i*s.Stride+s.Cols])
		}
	case []float64:
		s, ok := src.([]float64)
		if !ok || len(s) != len(d) {
			return mismatch()
		}
		copy(d, s)
	case []byte:
		s, ok := src.([]byte)
		if !ok || len(s) != len(d) {
			return mismatch()
		}
		copy(d, s)
	default:
		return src, nil
	}
	return dst, nil
}
