package trace

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
)

// The two serialisations of a trace, as WriteFile, the ?format= query of the
// HTTP faces and `pdltrace convert -to` name them.
const (
	FormatChrome = "chrome"
	FormatJSONL  = "jsonl"
)

// formats is what differs between them: the Content-Type and the writer.
var formats = map[string]struct {
	mediaType string
	write     func(*Trace, io.Writer) error
}{
	FormatChrome: {"application/json", (*Trace).WriteChrome},
	FormatJSONL:  {"application/x-ndjson", (*Trace).WriteJSONL},
}

func errFormat(format string) error {
	return fmt.Errorf("trace: unknown format %q (want %s or %s)", format, FormatChrome, FormatJSONL)
}

// WriteFile writes the trace to a file in the named format.
func (t *Trace) WriteFile(path, format string) error {
	fm, ok := formats[format]
	if !ok {
		return errFormat(format)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fm.write(t, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBytes parses a serialised trace in either format, sniffing which: a
// JSONL stream starts with the pdltrace header line (and may be nothing
// else), anything else has to be a Chrome trace.
func ReadBytes(data []byte) (*Trace, error) {
	data = bytes.TrimLeft(data, " \t\r\n")
	first, _, _ := bytes.Cut(data, []byte("\n"))
	var hdr jsonlHeader
	if json.Unmarshal(first, &hdr) == nil && hdr.Format == jsonlFormat {
		return ReadJSONL(bytes.NewReader(data))
	}
	t, err := ReadChrome(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("trace: no pdltrace JSONL header, and not Chrome trace_event JSON either: %w", err)
	}
	return t, nil
}

// ReadFile parses a trace file in either supported format.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := ReadBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// Serve answers r with the trace src returns, in the format the ?format=
// query names (def when it names none): 400 for an unknown format, then 404
// when src returns nil — src runs only once the format is known good, so a
// draining source never hands over spans that cannot be written. Every HTTP
// face of a trace is this function.
func Serve(w http.ResponseWriter, r *http.Request, src func() *Trace, def string) {
	format := cmp.Or(r.URL.Query().Get("format"), def)
	fm, ok := formats[format]
	if !ok {
		http.Error(w, errFormat(format).Error(), http.StatusBadRequest)
		return
	}
	tr := src()
	if tr == nil {
		http.Error(w, "no trace has been recorded in this process", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", fm.mediaType)
	if err := fm.write(tr, w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Handler is the GET /debug/trace http.HandlerFunc: the process's most
// recently published trace, Chrome trace_event JSON (loadable in Perfetto)
// unless ?format=jsonl.
func Handler(w http.ResponseWriter, r *http.Request) { Serve(w, r, Published, FormatChrome) }
