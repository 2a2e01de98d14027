// Package cluster executes taskrt task graphs across processes: a Master
// consumes a fully-submitted (unrun) Runtime's graph and dispatches codelet
// invocations over HTTP to Workers, which execute them against locally
// registered implementations.
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
// request's inline payloads into its cache as it reads the request, before
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
// bytes, never a half-written or twice-applied object.
//
// Wire: the master holds one POST /v1/execute per node open for the whole run
// and uses it in both directions at once — ExecRequest values go up the
// request body, ExecResponse values come down the response body, each side
// through a single gob encoder/decoder, so gob's type descriptors cross the
// connection once per node. Responses come back in the order chains finish
// and are matched to requests by the head's (TaskID, Attempt). Handle payloads
// travel inside those messages as opaque []byte frames (EncodePayload): a tag
// byte, and for matrices and float64 slices the raw little-endian elements. A
// stream that ends or breaks with requests unanswered fails each of them once
// with a transport error; the node's next dispatch opens a fresh stream. A
// one-shot POST carrying a single request is a stream of length one.
package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
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
	// stream of ExecRequest (resp. ExecResponse) values. gob carries the
	// envelope — ids, versions, spans — and moves the []byte payload frames
	// inside it untouched; the frames themselves are not gob (gob would
	// spend a varint per float64), see EncodePayload.
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

// AccessSpec is one data access of a step. Inline is the payload as an
// EncodePayload frame, which the worker caches at Version before resolving
// anything; when it is nil the worker must already hold (HandleID, Version) —
// cached, or written by an earlier step of the same chain — and responding
// NeedData makes the master re-inline: a cache miss, never a fault.
type AccessSpec struct {
	HandleID int
	Name     string
	Bytes    int64
	Mode     int // taskrt.AccessMode numeric value
	Version  uint64
	Inline   []byte
}

// Written is one produced payload: the contents of a handle the chain wrote,
// at the version its last writing step leaves it — the version the request
// named plus one per writing step (writers are serialised by the task graph,
// so successor versions are deterministic). Payload is an EncodePayload frame.
type Written struct {
	HandleID int
	Version  uint64
	Payload  []byte
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
// []byte never reach gob (see EncodePayload).
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

// EncodePayload serialises a handle payload into a frame. A matrix ships only
// its own rows×cols elements whatever its stride: a Sub() view aliases the
// parent's backing array from its origin to the end, and the rows are copied
// out of it one by one straight into the frame.
func EncodePayload(v any) ([]byte, error) {
	switch p := v.(type) {
	case *blas.Matrix:
		if p == nil || p.Rows < 0 || p.Cols < 0 {
			return nil, fmt.Errorf("cluster: encoding payload: invalid matrix %v", p)
		}
		out := make([]byte, matrixHeader+8*p.Rows*p.Cols)
		out[0] = frameMatrix
		binary.LittleEndian.PutUint64(out[1:], uint64(p.Rows))
		binary.LittleEndian.PutUint64(out[9:], uint64(p.Cols))
		body := out[matrixHeader:]
		if p.Stride == p.Cols {
			putFloat64s(body, p.Data[:p.Rows*p.Cols])
		} else {
			for i := 0; i < p.Rows; i++ {
				putFloat64s(body[8*i*p.Cols:], p.Data[i*p.Stride:i*p.Stride+p.Cols])
			}
		}
		return out, nil
	case []float64:
		out := make([]byte, 1+8*len(p))
		out[0] = frameFloat64
		putFloat64s(out[1:], p)
		return out, nil
	case []byte:
		out := make([]byte, 1+len(p))
		out[0] = frameBytes
		copy(out[1:], p)
		return out, nil
	}
	var buf bytes.Buffer
	buf.WriteByte(frameGob)
	if err := gob.NewEncoder(&buf).Encode(payloadBox{V: v}); err != nil {
		return nil, fmt.Errorf("cluster: encoding payload: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePayload reverses EncodePayload. Frames arrive from the network, so
// every malformed one — empty, unknown tag, short header, a shape whose
// rows×cols×8 is not exactly the body's length, trailing bytes — is an
// error, and the shape is checked against the bytes present before anything
// is allocated: a raw frame never allocates more than it is long.
func DecodePayload(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("cluster: decoding payload: empty frame")
	}
	body := data[1:]
	switch data[0] {
	case frameMatrix:
		if len(data) < matrixHeader {
			return nil, fmt.Errorf("cluster: decoding payload: matrix header truncated at %d bytes", len(data))
		}
		rows, cols := binary.LittleEndian.Uint64(data[1:]), binary.LittleEndian.Uint64(data[9:])
		body = data[matrixHeader:]
		// Both dimensions fit 31 bits, so their product cannot overflow; an
		// empty matrix keeps its other dimension.
		elems := uint64(len(body) / 8)
		if len(body)%8 != 0 || rows > math.MaxInt32 || cols > math.MaxInt32 || rows*cols != elems {
			return nil, fmt.Errorf("cluster: decoding payload: %d×%d matrix in a %d-byte body", rows, cols, len(body))
		}
		m := &blas.Matrix{Rows: int(rows), Cols: int(cols), Stride: int(cols), Data: make([]float64, elems)}
		getFloat64s(m.Data, body)
		return m, nil
	case frameFloat64:
		if len(body)%8 != 0 {
			return nil, fmt.Errorf("cluster: decoding payload: %d-byte body is not whole float64s", len(body))
		}
		out := make([]float64, len(body)/8)
		getFloat64s(out, body)
		return out, nil
	case frameBytes:
		out := make([]byte, len(body))
		copy(out, body)
		return out, nil
	case frameGob:
		r := bytes.NewReader(body)
		var box payloadBox
		if err := gob.NewDecoder(r).Decode(&box); err != nil {
			return nil, fmt.Errorf("cluster: decoding payload: %w", err)
		}
		if r.Len() != 0 {
			return nil, fmt.Errorf("cluster: decoding payload: %d trailing bytes", r.Len())
		}
		return box.V, nil
	}
	return nil, fmt.Errorf("cluster: decoding payload: unknown frame tag %#x", data[0])
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

func putFloat64s(dst []byte, src []float64) {
	if hostLittleEndian {
		copy(dst, float64Bytes(src))
		return
	}
	putFloat64sPortable(dst, src)
}

func getFloat64s(dst []float64, src []byte) {
	if hostLittleEndian {
		copy(float64Bytes(dst), src)
		return
	}
	getFloat64sPortable(dst, src)
}

func putFloat64sPortable(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

func getFloat64sPortable(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// ApplyPayload merges a received payload into an existing one, returning
// the value to store. Matrices and slices copy element-wise into dst so
// aliasing is preserved — the master's canonical payloads are often Sub()
// views into one parent matrix, and replacing the view would detach the
// tile from the matrix it verifies against. Shape mismatches and unknown
// types fall back to replacement (dst nil means the handle had no local
// payload yet).
func ApplyPayload(dst, src any) (any, error) {
	switch d := dst.(type) {
	case nil:
		return src, nil
	case *blas.Matrix:
		s, ok := src.(*blas.Matrix)
		if !ok {
			return nil, fmt.Errorf("cluster: applying %T over *blas.Matrix", src)
		}
		if s.Rows != d.Rows || s.Cols != d.Cols {
			return nil, fmt.Errorf("cluster: applying %dx%d matrix over %dx%d", s.Rows, s.Cols, d.Rows, d.Cols)
		}
		for i := 0; i < d.Rows; i++ {
			copy(d.Data[i*d.Stride:i*d.Stride+d.Cols], s.Data[i*s.Stride:i*s.Stride+s.Cols])
		}
		return d, nil
	case []float64:
		s, ok := src.([]float64)
		if !ok || len(s) != len(d) {
			return src, nil
		}
		copy(d, s)
		return d, nil
	case []byte:
		s, ok := src.([]byte)
		if !ok || len(s) != len(d) {
			return src, nil
		}
		copy(d, s)
		return d, nil
	default:
		return src, nil
	}
}
