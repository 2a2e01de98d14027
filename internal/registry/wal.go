// The registry's one durable format (see persist.go for recovery and
// DESIGN.md §8 for the whole design). Everything pdlserved writes to disk is a
// journal: a flat file of framed records. Every committed mutation — platform
// PUT, platform DELETE, perfmodel observation — is appended *before* it is
// applied to the in-memory store, so a crashed process replays the journal on
// restart and recovers exactly the committed history.
//
// Record framing (little-endian):
//
//	offset 0  uint32  payload length n
//	offset 4  uint32  CRC-32 (IEEE) of the payload
//	offset 8  n bytes payload: [0] = op byte, [1:] = JSON body
//
// The CRC covers only the payload: a torn write (power loss mid-append)
// leaves either a short header, a short payload, or a payload that fails the
// checksum — all three are detected and treated as the end of the journal.
// Everything before the tear is intact because records are strictly
// append-only and (with fsync enabled) durable before the mutation is
// acknowledged.
//
// A compacted journal — what compaction writes, and what an export bundle
// is — begins with an image of the store in the same records: an image head
// (store version, time, framed length of the rest of the image), one put per
// platform carrying its revision, and one perf-state record. Mutations follow
// the image. Journal 0 has no image: it starts from the empty store.
package registry

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Journal ops. The op byte is the first payload byte so the decoder can
// dispatch without parsing JSON.
const (
	opPut     = byte(1) // body: putRecord
	opDelete  = byte(2) // body: deleteRecord
	opObserve = byte(3) // body: observeRecord
	opImage   = byte(4) // body: imageHead; the first record of a compacted journal
	opPerf    = byte(5) // body: the perf state's own JSON; inside an image only
)

// recordHeaderLen is the fixed framing prefix: length + CRC.
const recordHeaderLen = 8

// maxRecordLen caps a single journal record's payload. It bounds the
// allocation a corrupt length prefix can trigger (the decoder refuses larger
// claims before allocating) and comfortably exceeds the server's default
// 4 MiB upload cap.
const maxRecordLen = 16 << 20

// Decode errors. errShortRecord and errRecordCRC mark a torn tail when they
// occur at the end of a journal; anywhere else they mean corruption.
var (
	errShortRecord = errors.New("registry: journal record truncated")
	errRecordCRC   = errors.New("registry: journal record CRC mismatch")
	errRecordSize  = errors.New("registry: journal record exceeds size limit")
)

// putRecord journals one committed platform upload. XML is the canonical
// (re-marshalled) document, so replay reproduces the same content-hash ETag.
type putRecord struct {
	Name string `json:"name"`
	XML  []byte `json:"xml"`
	// Revision is set only inside an image, where the put restores the
	// platform at that revision instead of committing a new one.
	Revision uint64 `json:"revision,omitempty"`
}

// deleteRecord journals one platform removal.
type deleteRecord struct {
	Name string `json:"name"`
}

// observeRecord journals one perfmodel observation routed through
// /platforms/{name}/observe. Replay re-runs the observation against the
// platform as recovered at that point in the history, reproducing the same
// per-pattern sample attribution.
type observeRecord struct {
	Platform string  `json:"platform"`
	Codelet  string  `json:"codelet"`
	Size     float64 `json:"size"`
	Seconds  float64 `json:"seconds"`
}

// imageHead opens a compacted journal. Bytes is the framed length of the image
// records behind it, so recovery tells a whole image from a cut one, and finds
// the mutations behind an image that does not verify.
type imageHead struct {
	Version uint64    `json:"version"` // the store version the image restores
	SavedAt time.Time `json:"saved_at"`
	Bytes   int64     `json:"bytes"`
}

// record is the decoded form of one journal payload: Op says which body is
// set.
type record struct {
	Op      byte
	Put     *putRecord
	Delete  *deleteRecord
	Observe *observeRecord
	Image   *imageHead
	Perf    []byte
}

// mutation reports whether r belongs after an image (a put, delete or
// observation) rather than inside one (a head, a put with its revision, the
// perf state).
func (r record) mutation() bool {
	return r.Op == opDelete || r.Op == opObserve || r.Op == opPut && r.Put.Revision == 0
}

// encodePayload renders a payload: op byte followed by the JSON body.
func encodePayload(op byte, body any) ([]byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("registry: encode journal record: %w", err)
	}
	payload := make([]byte, 1+len(data))
	payload[0] = op
	copy(payload[1:], data)
	return payload, nil
}

// decodePayload parses a record payload. Arbitrary bytes must only ever
// produce an error — never a panic or an unbounded allocation (the framing
// decoder has already capped the payload length).
func decodePayload(payload []byte) (record, error) {
	if len(payload) < 1 {
		return record{}, errors.New("registry: empty journal payload")
	}
	r, body := record{Op: payload[0]}, payload[1:]
	var dst any
	switch r.Op {
	case opPut:
		r.Put = new(putRecord)
		dst = r.Put
	case opDelete:
		r.Delete = new(deleteRecord)
		dst = r.Delete
	case opObserve:
		r.Observe = new(observeRecord)
		dst = r.Observe
	case opImage:
		r.Image = new(imageHead)
		dst = r.Image
	case opPerf:
		if !json.Valid(body) {
			return record{}, errors.New("registry: perf record is not JSON")
		}
		r.Perf = body
		return r, nil
	default:
		return record{}, fmt.Errorf("registry: unknown journal op %d", r.Op)
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return record{}, fmt.Errorf("registry: decode op %d record: %w", r.Op, err)
	}
	switch {
	case r.Put != nil && r.Put.Name == "", r.Delete != nil && r.Delete.Name == "":
		return record{}, fmt.Errorf("registry: op %d record without name", r.Op)
	case r.Observe != nil && (r.Observe.Platform == "" || r.Observe.Codelet == ""):
		return record{}, errors.New("registry: observe record without platform/codelet")
	case r.Observe != nil && (r.Observe.Size <= 0 || r.Observe.Seconds <= 0):
		return record{}, errors.New("registry: observe record with non-positive sample")
	case r.Image != nil && r.Image.Bytes < 0:
		return record{}, errors.New("registry: image head with negative length")
	}
	return r, nil
}

// encodeRecord frames a payload: header (length + CRC) followed by the
// payload, returned as one slice so Append issues a single write.
func encodeRecord(payload []byte) ([]byte, error) {
	if len(payload) > maxRecordLen {
		return nil, errRecordSize
	}
	rec := make([]byte, recordHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	copy(rec[recordHeaderLen:], payload)
	return rec, nil
}

// decodeRecord consumes one framed record from buf, returning the payload
// (a subslice of buf — no copy, no allocation) and the remaining bytes.
// It never allocates based on untrusted lengths: a length prefix larger
// than maxRecordLen fails with errRecordSize, and a length larger than the
// remaining buffer fails with errShortRecord before any slicing.
func decodeRecord(buf []byte) (payload, rest []byte, err error) {
	if len(buf) < recordHeaderLen {
		return nil, buf, errShortRecord
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n > maxRecordLen {
		return nil, buf, errRecordSize
	}
	if uint64(len(buf)-recordHeaderLen) < uint64(n) {
		return nil, buf, errShortRecord
	}
	payload = buf[recordHeaderLen : recordHeaderLen+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, buf, errRecordCRC
	}
	return payload, buf[recordHeaderLen+int(n):], nil
}

// next decodes the first record of buf, framing and payload.
func next(buf []byte) (record, []byte, error) {
	payload, rest, err := decodeRecord(buf)
	if err != nil {
		return record{}, buf, err
	}
	r, err := decodePayload(payload)
	if err != nil {
		return record{}, buf, err
	}
	return r, rest, nil
}

// image is a decoded store image: the head and the records behind it.
type image struct {
	imageHead
	puts []putRecord
	perf []byte // nil when the store had no perf state attached
}

// encodeImage renders a store image as the records a compacted journal
// begins with.
func encodeImage(head imageHead, puts []putRecord, perf []byte) ([]byte, error) {
	var body []byte
	add := func(op byte, v any) error {
		payload, err := encodePayload(op, v)
		if err == nil {
			var rec []byte
			rec, err = encodeRecord(payload)
			body = append(body, rec...)
		}
		return err
	}
	for _, pr := range puts {
		if err := add(opPut, pr); err != nil {
			return nil, fmt.Errorf("registry: image of %q: %w", pr.Name, err)
		}
	}
	if perf != nil {
		if err := add(opPerf, json.RawMessage(perf)); err != nil {
			return nil, fmt.Errorf("registry: image of the perf state: %w", err)
		}
	}
	head.Bytes = int64(len(body))
	payload, err := encodePayload(opImage, head)
	if err != nil {
		return nil, err
	}
	out, err := encodeRecord(payload)
	return append(out, body...), err
}

// decodeImage reads the image a compacted journal begins with. rest is what
// follows the image — the journal's mutations. It is non-nil whenever the
// head is whole, even if the image behind it is not, so recovery can replay
// the mutations behind a damaged image.
func decodeImage(data []byte) (img image, rest []byte, err error) {
	r, buf, err := next(data)
	if err != nil {
		return img, nil, err
	}
	if r.Op != opImage {
		return img, nil, errors.New("registry: journal does not begin with an image")
	}
	img.imageHead = *r.Image
	if int64(len(buf)) < img.Bytes {
		return img, nil, fmt.Errorf("%w: image of %d bytes cut at %d", errShortRecord, img.Bytes, len(buf))
	}
	body, rest := buf[:img.Bytes], buf[img.Bytes:]
	for len(body) > 0 {
		if r, body, err = next(body); err != nil {
			return img, rest, fmt.Errorf("registry: image record: %w", err)
		}
		switch {
		case r.Op == opPut && !r.mutation():
			img.puts = append(img.puts, *r.Put)
		case r.Op == opPerf && img.perf == nil:
			img.perf = r.Perf
		default:
			return img, rest, fmt.Errorf("registry: op %d record inside an image", r.Op)
		}
	}
	return img, rest, nil
}

// replayRecords hands each mutation record in buf to apply, in order. A record
// that does not decode — short, failing its CRC, or not a mutation — is a torn
// tail: replay stops there, and good is the length of the intact prefix.
func replayRecords(buf []byte, apply func(record)) (n int, good int64, torn bool) {
	for total := len(buf); len(buf) > 0; n++ {
		r, rest, err := next(buf)
		if err != nil || !r.mutation() {
			// errRecordSize means a garbage length prefix — indistinguishable
			// from any other torn or overwritten tail, so it ends replay too.
			return n, good, true
		}
		apply(r)
		buf = rest
		good = int64(total - len(buf))
	}
	return n, good, false
}

// readJournal reads a journal file; a missing file is an empty journal.
func readJournal(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

// journal is an open, append-only WAL file.
type journal struct {
	f       *os.File
	size    int64 // bytes of committed (framed) records, image included
	records int   // mutations appended or replayed through this handle
	fsync   bool  // sync after every append

	// fsyncObserve, when set, receives the duration of each fsync (wired to
	// the pdlserved_wal_fsync_seconds histogram).
	fsyncObserve func(time.Duration)
}

// openJournal opens (creating if absent) the journal at path for appending.
// The caller is responsible for having replayed and truncated any torn tail
// first; size is the verified good length.
func openJournal(path string, size int64, fsync bool) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &journal{f: f, size: size, fsync: fsync}, nil
}

// writeJournal installs a new journal holding data at path: written to a
// temporary file, fsync'd, then renamed into place and the rename made
// durable, so a crash mid-write leaves at worst a stray .tmp file that
// recovery ignores — never a journal cut short.
func writeJournal(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Best-effort: some filesystems refuse a directory fsync.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// append frames and writes one payload, then (per policy) fsyncs. On any
// error the journal must be considered broken: the caller flips the store
// to read-only rather than risk acknowledging mutations that are not
// durable.
func (j *journal) append(payload []byte) error {
	rec, err := encodeRecord(payload)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(rec); err != nil {
		return fmt.Errorf("registry: journal append: %w", err)
	}
	if j.fsync {
		start := time.Now()
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("registry: journal fsync: %w", err)
		}
		if j.fsyncObserve != nil {
			j.fsyncObserve(time.Since(start))
		}
	}
	j.size += int64(len(rec))
	j.records++
	return nil
}

// sync fsyncs the journal file unconditionally (the drain-time flush).
func (j *journal) sync() error {
	if j.f == nil {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("registry: journal sync: %w", err)
	}
	return nil
}

func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
