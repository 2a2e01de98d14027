package cluster

import (
	"bytes"
	"io"
	"net/http"
	"testing"
)

// The test doubles — hand-held clients, fake workers, proxies that drop,
// repeat, delay or tear messages — speak the execute wire through the
// package's own messageReader/messageWriter, so a change to what a message is
// reaches them by construction.

// trailing moves every frame a test put inside the envelope (AccessSpec.Inline)
// behind it, the way the master sends one, and returns the frames to write
// after the request.
func trailing(req *ExecRequest) []any {
	var frames []any
	for _, s := range req.steps() {
		for i := range s.Accesses {
			if a := &s.Accesses[i]; a.Inline != nil {
				frames = append(frames, rawFrame(a.Inline))
				a.FrameLen, a.Inline = int64(len(a.Inline)), nil
			}
		}
	}
	return frames
}

// resend returns the frames to write behind a request the worker's reader
// read, which turns it back into the message it was.
func resend(req *ExecRequest) []any {
	frames := make([]any, len(req.received))
	for i, in := range req.received {
		frames[i] = in.payload
	}
	return frames
}

// readResponse reads one response message with no run to check it against:
// each returned payload lands in its Written entry.
func readResponse(mr *messageReader) (*ExecResponse, error) {
	resp := new(ExecResponse)
	if err := mr.envelope(resp); err != nil {
		return nil, err
	}
	for i := range resp.Written {
		v, err := mr.frame(resp.Written[i].FrameLen)
		if err != nil {
			return nil, err
		}
		resp.Written[i].payload = v
	}
	return resp, nil
}

// returnedFrames are the frames to write behind a response readResponse read.
func returnedFrames(resp *ExecResponse) []any {
	frames := make([]any, len(resp.Written))
	for i, wr := range resp.Written {
		frames[i] = wr.payload
	}
	return frames
}

// postExec sends one request as a one-shot POST, its frames behind the
// envelope, and reads the one response.
func postExec(t *testing.T, url string, req *ExecRequest) *ExecResponse {
	t.Helper()
	var buf bytes.Buffer
	if err := newMessageWriter(&buf).write(req, trailing(req)); err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(url+PathExecute, ContentTypeGob, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("execute returned %d", httpResp.StatusCode)
	}
	resp, err := readResponse(newMessageReader(httpResp.Body, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// duplexTransport hands a request to a handler in process, both bodies
// in-memory pipes: the master's stream and the worker's handler run for real
// with no socket, chunking or copy loop between them.
type duplexTransport struct{ h http.Handler }

func (dt duplexTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	pr, pw := io.Pipe()
	rw := &duplexWriter{header: http.Header{}, body: pw, wrote: make(chan struct{})}
	go func() {
		dt.h.ServeHTTP(rw, r)
		rw.WriteHeader(http.StatusOK)
		pw.Close()
	}()
	select {
	case <-rw.wrote:
	case <-r.Context().Done():
		return nil, r.Context().Err()
	}
	return &http.Response{StatusCode: rw.status, Header: rw.header, Body: pr, Request: r}, nil
}

// duplexWriter is the handler's side of a duplexTransport round trip: the
// response head is delivered on the first WriteHeader, the body is a pipe.
type duplexWriter struct {
	header http.Header
	body   *io.PipeWriter
	status int
	wrote  chan struct{}
}

func (w *duplexWriter) Header() http.Header { return w.header }

func (w *duplexWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
		close(w.wrote)
	}
}

func (w *duplexWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func (w *duplexWriter) Flush()                  {}
func (w *duplexWriter) EnableFullDuplex() error { return nil }
