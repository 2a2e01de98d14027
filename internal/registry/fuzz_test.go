package registry

import (
	"bytes"
	"testing"
	"time"
)

// FuzzDecodeRecord throws arbitrary bytes at the journal decoders — the
// record framing, the payload, a compacted journal's image, and the replay of
// the mutations after it, which together are every byte recovery reads from a
// data dir. The contract under fuzz: never panic, never allocate based on an
// untrusted length prefix, and either fail cleanly or decode a payload that
// re-encodes to the identical framing. Seed corpus lives in
// testdata/fuzz/FuzzDecodeRecord (run in every plain `go test`; CI
// additionally runs -fuzz for a time-boxed exploration).
func FuzzDecodeRecord(f *testing.F) {
	// Seeds: one valid record of each mutation op, a truncated tail, a
	// corrupted CRC, an oversized length claim, and junk.
	putP, _ := encodePayload(opPut, putRecord{Name: "plat", XML: []byte("<Platform name=\"p\"/>")})
	delP, _ := encodePayload(opDelete, deleteRecord{Name: "plat"})
	obsP, _ := encodePayload(opObserve, observeRecord{Platform: "plat", Codelet: "dgemm", Size: 128, Seconds: 0.25})
	for _, payload := range [][]byte{putP, delP, obsP} {
		rec, err := encodeRecord(payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		f.Add(rec[:len(rec)-3]) // torn tail
		bad := append([]byte(nil), rec...)
		bad[len(bad)-1] ^= 0x80 // CRC mismatch
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length prefix
	f.Add([]byte("not a journal at all"))
	// A compacted journal: an image with a mutation behind it, whole and cut
	// inside the image.
	img, err := encodeImage(imageHead{Version: 3, SavedAt: time.Unix(1, 0).UTC()},
		[]putRecord{{Name: "plat", XML: []byte("<x/>"), Revision: 2}}, []byte(`{"observations":[]}`))
	if err != nil {
		f.Fatal(err)
	}
	obsRec, _ := encodeRecord(obsP)
	f.Add(append(img, obsRec...))
	f.Add(img[:len(img)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		// Every byte recovery reads goes through these two; they must not
		// panic whatever they get.
		if img, rest, err := decodeImage(data); err == nil && int64(len(data)-len(rest)) < img.Bytes {
			t.Fatalf("image of %d bytes decoded from %d", img.Bytes, len(data)-len(rest))
		}
		if _, good, _ := replayRecords(data, func(r record) {
			if !r.mutation() {
				t.Fatalf("replay applied op %d, which is not a mutation", r.Op)
			}
		}); good > int64(len(data)) {
			t.Fatalf("replay verified %d of %d bytes", good, len(data))
		}

		payload, rest, err := decodeRecord(data)
		if err != nil {
			// Failed decodes must consume nothing.
			if len(rest) != len(data) {
				t.Fatalf("failed decode consumed %d bytes", len(data)-len(rest))
			}
			return
		}
		if len(payload) > maxRecordLen {
			t.Fatalf("decoded payload of %d bytes exceeds cap", len(payload))
		}
		if consumed := len(data) - len(rest); consumed != recordHeaderLen+len(payload) {
			t.Fatalf("consumed %d bytes for a %d-byte payload", consumed, len(payload))
		}
		// Round-trip: re-encoding the decoded payload must reproduce the
		// consumed bytes exactly.
		rec, err := encodeRecord(payload)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(rec, data[:len(data)-len(rest)]) {
			t.Fatal("re-encoded record differs from consumed bytes")
		}
		// The payload decoder must also be panic-free on whatever framing
		// let through; errors are fine.
		if r, err := decodePayload(payload); err == nil {
			switch r.Op {
			case opPut:
				if r.Put == nil || r.Put.Name == "" {
					t.Fatal("valid put decode without name")
				}
			case opDelete:
				if r.Delete == nil || r.Delete.Name == "" {
					t.Fatal("valid delete decode without name")
				}
			case opObserve:
				if r.Observe == nil || r.Observe.Size <= 0 || r.Observe.Seconds <= 0 {
					t.Fatal("valid observe decode with non-positive sample")
				}
			case opImage:
				if r.Image == nil || r.Image.Bytes < 0 {
					t.Fatal("valid image head with a negative length")
				}
			case opPerf:
				if len(r.Perf) == 0 {
					t.Fatal("valid perf record without a body")
				}
			default:
				t.Fatalf("decodePayload accepted unknown op %d", r.Op)
			}
		}
	})
}
