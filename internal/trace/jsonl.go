package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// JSONL stream format: line 1 is a header object naming the format and
// carrying trace metadata, every following line is one Event. The format is
// append-friendly (a crashed run keeps every line written so far) and
// streams through standard line tooling, while WriteChrome targets the
// Perfetto UI.

// jsonlHeader is the first line of a JSONL trace.
type jsonlHeader struct {
	Format  string            `json:"format"` // "pdltrace"
	Version int               `json:"version"`
	Events  int               `json:"events"`
	Dropped uint64            `json:"dropped,omitempty"`
	Meta    map[string]string `json:"meta,omitempty"`
}

const jsonlFormat = "pdltrace"

// WriteJSONL writes the trace as a JSONL stream: header line, then one
// event per line in export order (sortEvents).
func (t *Trace) WriteJSONL(w io.Writer) error {
	events := t.Events()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{
		Format:  jsonlFormat,
		Version: 1,
		Events:  len(events),
		Dropped: t.Dropped(),
		Meta:    t.Meta(),
	}); err != nil {
		return err
	}
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL reconstructs a Trace from a JSONL stream.
func ReadJSONL(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty JSONL trace")
	}
	var hdr jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("trace: decoding JSONL header: %w", err)
	}
	if hdr.Format != jsonlFormat {
		return nil, fmt.Errorf("trace: not a pdltrace JSONL stream (format %q)", hdr.Format)
	}
	t := New()
	for k, v := range hdr.Meta {
		t.SetMeta(k, v)
	}
	t.addDroppedLocked(hdr.Dropped)
	line := 1
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("trace: JSONL line %d: %w", line, err)
		}
		t.events = append(t.events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
