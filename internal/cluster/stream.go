package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// execStream is the master's end of one node's execute stream: a single POST
// whose request body carries ExecRequest messages up and whose response body
// brings ExecResponse messages down, each through one message writer/reader
// for the life of the connection. The node's sender writes, one reader
// goroutine reads; the pending table between them is what turns an answer, a
// timeout or a break into exactly one evResult per invocation.
type execStream struct {
	st   *runState
	node *nodeState
	body *io.PipeWriter // the request body; closed by end
	stop context.CancelFunc

	out *messageWriter // the node's sender's alone: one writer, so one request message on the wire at a time

	mu sync.Mutex
	// pending holds the invocations written (or being written) to the stream
	// and not yet resolved, by the head's task id: the run loop keeps at most
	// one invocation of a task in flight.
	pending map[int]*inflightRec
	err     error // why the stream ended; nil while it is usable
}

// openStream starts the node's execute POST and the reader goroutine that
// carries it. It does not wait for the node: requests may be written at once,
// and a refused or failed POST surfaces as the stream breaking under them.
// The request body is the read end of the pipe the sender writes, as a
// streamBody, so that each message write — the envelope run, then each frame —
// leaves as one HTTP chunk.
func (st *runState) openStream(n *nodeState) (*execStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.cfg.Addr+PathExecute, streamBody{pr})
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", ContentTypeGob)
	// The body never ends on its own, and a server that answers an error
	// without reading it would first wait for it to. Asking for 100 Continue
	// lets such a server answer at once, and the worker's first read grants it.
	req.Header.Set("Expect", "100-continue")
	s := &execStream{
		st: st, node: n, body: pw, stop: cancel,
		out: newMessageWriter(pw), pending: map[int]*inflightRec{},
	}
	st.bg.Add(1)
	go s.read(req)
	return s, nil
}

// streamChunk bounds one chunk of the execute POST's body: two 128×128 tiles.
const streamChunk = 256 << 10

// streamBody is an execute stream's request body. net/http copies a body
// through a 32 KiB buffer and sends each piece as its own chunk, flushed —
// four chunks of three socket writes each for a 128 KiB tile, and four
// hand-offs through the pipe — unless the body is an io.WriterTo. This one
// copies through a buffer of streamChunk bytes, allocated once for the
// stream, so each pipe write up to that size arrives in one Read and leaves
// as one chunk. Closing and errors are the pipe's.
type streamBody struct{ *io.PipeReader }

func (b streamBody) WriteTo(w io.Writer) (int64, error) {
	return io.CopyBuffer(w, b.PipeReader, make([]byte, streamChunk))
}

// submit registers rec as pending and writes its request, then the payloads it
// announces. Past registration the invocation's outcome — including a failed
// write, which breaks the stream for everyone on it — arrives as an event; an
// error return means the stream had already ended and nothing was registered.
func (s *execStream) submit(rec *inflightRec, frames []any) error {
	id := rec.req.TaskID
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return s.err
	}
	s.pending[id] = rec
	rec.timeout = time.AfterFunc(s.st.m.cfg.ExecTimeout, func() {
		if s.take(id, rec.req.Attempt) != nil {
			s.st.send(event{kind: evResult, rec: rec,
				err: fmt.Errorf("no response from %s within %s", s.node.cfg.Name, s.st.m.cfg.ExecTimeout)})
		}
	})
	s.mu.Unlock()

	if err := s.out.write(rec.req, frames); err != nil {
		// A partly written message leaves the peer's reader out of step: the
		// stream is unusable from here.
		s.fail(fmt.Errorf("writing to %s: %w", s.node.cfg.Name, err))
		return nil
	}
	s.mu.Lock()
	if s.pending[id] == rec {
		rec.sent = time.Now()
	}
	s.mu.Unlock()
	return nil
}

// take removes and returns the pending invocation a response (or a timeout)
// for (id, attempt) resolves; nil when there is none — already resolved, or a
// stale answer to an invocation this stream no longer waits for.
func (s *execStream) take(id, attempt int) *inflightRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.pending[id]
	if rec == nil || rec.req.Attempt != attempt {
		return nil
	}
	delete(s.pending, id)
	rec.timeout.Stop()
	return rec
}

// staged holds the memory returned tiles are staged in, between a stream's
// reader, which fills it, and the loop, which copies it into the handle's
// storage and puts it back.
var staged sync.Pool

func stagedFloats(n int64) []float64 {
	if buf, _ := staged.Get().([]float64); int64(cap(buf)) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// next reads the stream's next response message and takes the invocation it
// answers, nil for a stale answer, off the pending table. Each frame is read
// only after the run has checked what the node announces for it (returned),
// and into staging memory: the handle's own storage changes when the loop
// applies the result, if it does. An error past the envelope comes with the
// invocation, which the stream's end will no longer report.
func (s *execStream) next(mr *messageReader) (*ExecResponse, *inflightRec, error) {
	resp := new(ExecResponse)
	if err := mr.envelope(resp); err != nil {
		return nil, nil, err
	}
	rec := s.take(resp.TaskID, resp.Attempt)
	for i := range resp.Written {
		wr := &resp.Written[i]
		var err error
		if rec == nil {
			err = mr.skip(wr.FrameLen) // nobody waits for these bytes; they are still in the way
		} else if err = s.st.returned(rec, wr); err == nil {
			wr.payload, err = mr.frame(wr.FrameLen)
		}
		if err != nil {
			return nil, rec, err
		}
	}
	return resp, rec, nil
}

// read performs the POST and turns its response body into evResult events
// until the stream ends. The worker sends its headers on reading the first
// request, and from then on a dead connection shows up here as a read error;
// one that dies before that leaves Do waiting on the request body, and is left
// to the per-record timeouts and the heartbeat.
func (s *execStream) read(req *http.Request) {
	defer s.st.bg.Done()
	httpResp, err := s.st.m.http.Do(req)
	if err != nil {
		s.fail(fmt.Errorf("execute stream to %s: %w", s.node.cfg.Name, err))
		return
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512)) // best effort: the status alone is the error
		s.fail(fmt.Errorf("execute stream to %s: status %d: %s", s.node.cfg.Name, httpResp.StatusCode, bytes.TrimSpace(msg)))
		return
	}
	mr := newMessageReader(httpResp.Body, s.st.respMax)
	mr.floats = stagedFloats
	for {
		resp, rec, err := s.next(mr)
		if err != nil {
			if err == io.EOF {
				err = errors.New("closed by the node")
			}
			err = fmt.Errorf("execute stream to %s: %w", s.node.cfg.Name, err)
			if rec != nil {
				s.st.send(event{kind: evResult, rec: rec, err: err})
			}
			s.fail(err)
			return
		}
		if rec == nil {
			continue
		}
		if !rec.sent.IsZero() {
			cm.execRTT.With(s.node.cfg.Name).Observe(time.Since(rec.sent).Seconds())
		}
		s.st.send(event{kind: evResult, rec: rec, resp: resp})
	}
}

// end closes the stream, once, and returns the invocations it still owed an
// answer.
func (s *execStream) end(err error) map[int]*inflightRec {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return nil
	}
	s.err = err
	owed := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, rec := range owed {
		rec.timeout.Stop()
	}
	s.body.CloseWithError(err)
	s.stop()
	return owed
}

// fail ends a broken stream and reports every invocation still pending on it
// as a transport error, each once.
func (s *execStream) fail(err error) {
	for _, rec := range s.end(err) {
		s.st.send(event{kind: evResult, rec: rec, err: err})
	}
}

var (
	errStreamRetired = errors.New("execute stream retired")
	errRunOver       = errors.New("run is over")
)

// stream returns the node's open stream, opening one when there is none or
// the last one broke. Only the node's sender asks; none is opened once the run
// has stopped, so shutdown retires them all.
func (st *runState) stream(n *nodeState) (*execStream, error) {
	n.streamMu.Lock()
	defer n.streamMu.Unlock()
	select {
	case <-st.stop:
		return nil, errRunOver
	default:
	}
	if s := n.stream; s != nil {
		s.mu.Lock()
		ok := s.err == nil
		s.mu.Unlock()
		if ok {
			return s, nil
		}
	}
	s, err := st.openStream(n)
	if err != nil {
		return nil, err
	}
	if n.streamed {
		cm.reconnects.With(n.cfg.Name).Inc()
	}
	n.stream, n.streamed = s, true
	return s, nil
}

// retireStream closes the node's stream without reporting what was pending
// on it: for a node that comes back up, whose in-flight records nodeDown
// already resubmitted, and at the end of the run.
func (n *nodeState) retireStream() {
	n.streamMu.Lock()
	s := n.stream
	n.stream = nil
	n.streamMu.Unlock()
	if s != nil {
		s.end(errStreamRetired)
	}
}
