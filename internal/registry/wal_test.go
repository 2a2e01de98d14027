package registry

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	payload, err := encodePayload(opPut, putRecord{Name: "p", XML: []byte("<x/>")})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := encodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := decodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q vs %q", got, payload)
	}
	if len(rest) != 0 {
		t.Fatalf("unexpected %d trailing bytes", len(rest))
	}
	m, err := decodePayload(got)
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != opPut || m.Put == nil || m.Put.Name != "p" || string(m.Put.XML) != "<x/>" || !m.mutation() {
		t.Fatalf("decoded mutation = %+v", m)
	}
}

func TestDecodeRecordTornAndCorrupt(t *testing.T) {
	payload, _ := encodePayload(opDelete, deleteRecord{Name: "p"})
	rec, _ := encodeRecord(payload)

	// Every strict prefix of a record is torn, never valid and never a panic.
	for cut := 0; cut < len(rec); cut++ {
		if _, _, err := decodeRecord(rec[:cut]); err == nil {
			t.Fatalf("cut at %d decoded successfully", cut)
		}
	}

	// A flipped payload bit fails the checksum.
	bad := append([]byte(nil), rec...)
	bad[len(bad)-1] ^= 0x01
	if _, _, err := decodeRecord(bad); !errors.Is(err, errRecordCRC) {
		t.Fatalf("corrupt payload err = %v, want CRC mismatch", err)
	}

	// A garbage length prefix must not trigger a giant allocation.
	huge := append([]byte(nil), rec...)
	binary.LittleEndian.PutUint32(huge[0:4], maxRecordLen+1)
	if _, _, err := decodeRecord(huge); !errors.Is(err, errRecordSize) {
		t.Fatalf("oversized length err = %v, want size error", err)
	}
}

func TestJournalAppendReplayTruncates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.wal")
	j, err := openJournal(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, name := range []string{"a", "b", "c"} {
		p, _ := encodePayload(opDelete, deleteRecord{Name: name})
		payloads = append(payloads, p)
		if err := j.append(p); err != nil {
			t.Fatal(err)
		}
	}
	goodSize := j.size
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: half of a fourth record.
	tornRec, _ := encodeRecord(payloads[0])
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.Write(tornRec[:len(tornRec)/2])
	f.Close()

	data, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	n, good, torn := replayRecords(data, func(m record) { names = append(names, m.Delete.Name) })
	if !torn {
		t.Fatal("torn tail not detected")
	}
	if good != goodSize {
		t.Fatalf("good = %d, want %d", good, goodSize)
	}
	if n != 3 || len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("replayed %d records (%v), want the 3 intact ones", n, names)
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	data, err := readJournal(filepath.Join(t.TempDir(), "absent.wal"))
	if err != nil || data != nil {
		t.Fatalf("missing journal = %q, %v; want empty", data, err)
	}
	n, good, torn := replayRecords(data, func(record) { t.Fatal("apply called") })
	if n != 0 || good != 0 || torn {
		t.Fatalf("replay of nothing = (%d, %d, %v)", n, good, torn)
	}
}

// An image is a compacted journal's head in the journal's own records: it
// round-trips to the same entries and version, every strict prefix of it is
// refused, and so is any flipped byte.
func TestSnapshotRoundTripAndCorruption(t *testing.T) {
	reg := New()
	xml := readTestPlatform(t, "gtx480")
	for i := 0; i < 2; i++ { // revision 2 of gtx480
		if _, _, err := reg.Put("gtx480", xml); err != nil {
			t.Fatal(err)
		}
		if _, _, err := reg.Put("other", platformXML("other", i)); err != nil {
			t.Fatal(err)
		}
	}
	version, puts := reg.exportState()
	data, err := encodeImage(imageHead{Version: version}, puts, []byte(`{"observations":[]}`))
	if err != nil {
		t.Fatal(err)
	}

	img, rest, err := decodeImage(data)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decodeImage = %v with %d bytes after the image", err, len(rest))
	}
	if string(img.perf) != `{"observations":[]}` || len(img.puts) != 2 {
		t.Fatalf("image holds %d puts and perf %q", len(img.puts), img.perf)
	}
	restored := New()
	if err := restored.restoreState(img.Version, img.puts); err != nil {
		t.Fatal(err)
	}
	for _, orig := range reg.List() {
		got, ok := restored.Get(orig.Name)
		if !ok || got.ETag != orig.ETag || got.Revision != orig.Revision {
			t.Fatalf("restored entry = %+v, want etag %s rev %d", got, orig.ETag, orig.Revision)
		}
	}
	if restored.Version() != reg.Version() {
		t.Fatalf("restored version %d != %d", restored.Version(), reg.Version())
	}

	for cut := 0; cut < len(data); cut++ {
		if _, _, err := decodeImage(data[:cut]); err == nil {
			t.Fatalf("image cut at %d of %d decoded", cut, len(data))
		}
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)-3] ^= 0x40
	if _, rest, err := decodeImage(bad); err == nil || rest == nil {
		t.Fatalf("flipped image byte: err = %v, rest found = %v; want refused behind a readable head", err, rest != nil)
	}
	// The image's records are not mutations, so replaying one as the tail
	// of a journal stops at once.
	if n, _, torn := replayRecords(data, func(record) {}); n != 0 || !torn {
		t.Fatalf("replaying an image applied %d records (torn %v)", n, torn)
	}
}

// readTestPlatform loads one of the platform catalog's documents.
func readTestPlatform(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "discover", "platforms", name+".pdl.xml"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}
