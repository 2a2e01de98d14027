package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// fakePerf is a deterministic PerfState for the harness: observations
// accumulate in order and snapshot to canonical JSON, so two stores that
// saw the same committed history serialise to identical bytes.
type fakePerf struct {
	Observations []fakeObs `json:"observations"`
}

type fakeObs struct {
	Platform string  `json:"platform"`
	Codelet  string  `json:"codelet"`
	Size     float64 `json:"size"`
	Seconds  float64 `json:"seconds"`
}

func (f *fakePerf) SnapshotPerf() ([]byte, error) { return json.Marshal(f) }

func (f *fakePerf) RestorePerf(data []byte) error {
	var in fakePerf
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	f.Observations = append(f.Observations, in.Observations...)
	return nil
}

func (f *fakePerf) Observe(pl *core.Platform, codelet string, size, seconds float64) error {
	f.Observations = append(f.Observations, fakeObs{Platform: pl.Name, Codelet: codelet, Size: size, Seconds: seconds})
	return nil
}

// platformXML renders a small, schema-valid PDL document whose content —
// and therefore content-hash ETag — varies with rev.
func platformXML(name string, rev int) []byte {
	return []byte(fmt.Sprintf(`<?xml version="1.0" encoding="UTF-8"?>
<Platform name=%q schemaVersion="1.0">
  <Master id="host" quantity="%d">
    <PUDescriptor>
      <Property fixed="true">
        <name>ARCHITECTURE</name>
        <value>x86</value>
      </Property>
      <Property fixed="true">
        <name>CORES</name>
        <value>%d</value>
      </Property>
    </PUDescriptor>
  </Master>
</Platform>`, name, 1+rev%4, 2+rev))
}

// storeImage captures everything the acceptance criteria compare: per-name
// ETag+revision, the store version, and the perfmodel snapshot bytes.
type storeImage struct {
	Version  uint64
	Entries  map[string]string // name -> etag "@" revision
	PerfJSON string
}

func imageOf(t testing.TB, reg *Registry, perf PerfState) storeImage {
	t.Helper()
	img := storeImage{Version: reg.Version(), Entries: map[string]string{}}
	for _, e := range reg.List() {
		img.Entries[e.Name] = fmt.Sprintf("%s@%d", e.ETag, e.Revision)
	}
	pm, err := perf.SnapshotPerf()
	if err != nil {
		t.Fatal(err)
	}
	img.PerfJSON = string(pm)
	return img
}

func (a storeImage) equal(b storeImage) bool {
	if a.Version != b.Version || a.PerfJSON != b.PerfJSON || len(a.Entries) != len(b.Entries) {
		return false
	}
	for k, v := range a.Entries {
		if b.Entries[k] != v {
			return false
		}
	}
	return true
}

// mutationStep applies one scripted mutation through the durable path.
// Steps cycle through puts (fresh and overwriting), observes and deletes so
// the journal holds every op type; every step appends exactly one record.
func mutationStep(t testing.TB, p *Persistence, reg *Registry, i int) {
	t.Helper()
	put := func(name string) error {
		prepared, perr := reg.Prepare(name, platformXML(name, i))
		if perr != nil {
			t.Fatal(perr)
		}
		return p.LogPut(name, prepared.XML(), func() { reg.CommitPrepared(prepared) })
	}
	var err error
	switch op := i % 5; {
	case op == 2 && reg.Len() > 0: // observe an existing platform
		e := reg.List()[0]
		size, secs := float64(100+i), 0.001*float64(1+i)
		err = p.LogObserve(e.Name, "dgemm", size, secs, func() {
			p.perf.Observe(e.Platform, "dgemm", size, secs)
		})
	case op == 4 && reg.Len() > 0: // delete an existing platform
		name := reg.List()[0].Name
		err = p.LogDelete(name, func() { reg.Delete(name) })
	default:
		err = put(fmt.Sprintf("plat-%d", i%3))
	}
	if err != nil {
		t.Fatalf("step %d: %v", i, err)
	}
}

// openHarness opens a persistence over dir with a fresh registry+fakePerf.
func openHarness(t testing.TB, dir string, opts PersistOptions) (*Persistence, *Registry, *fakePerf) {
	t.Helper()
	reg := New()
	perf := &fakePerf{}
	opts.Logf = t.Logf
	p, err := OpenPersistence(dir, reg, perf, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, reg, perf
}

// copyDir clones the data dir so each truncation experiment starts from
// the same post-crash bytes.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashRecoveryEveryByteOfLastRecord is the kill-and-restart property
// the issue demands: run a mutation loop, then hard-kill persistence
// mid-write by truncating the journal at EVERY byte boundary of the last
// record. Each truncated store must reopen to exactly the state after the
// previous committed mutation — the torn record is discarded, nothing
// fsync'd before it is lost, and nothing partial leaks through.
func TestCrashRecoveryEveryByteOfLastRecord(t *testing.T) {
	dir := t.TempDir()
	p, reg, perf := openHarness(t, dir, PersistOptions{Fsync: false})

	const steps = 8
	var sizes []int64       // journal size after each committed step
	var images []storeImage // committed store image after each step
	for i := 0; i < steps; i++ {
		mutationStep(t, p, reg, i)
		sizes = append(sizes, p.JournalSize())
		images = append(images, imageOf(t, reg, perf))
	}
	journalPath := p.ActiveJournalPath()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	prevSize, lastSize := sizes[steps-2], sizes[steps-1]
	if lastSize <= prevSize {
		t.Fatalf("last step appended nothing (sizes %v)", sizes)
	}
	for cut := prevSize; cut <= lastSize; cut++ {
		crashDir := copyDir(t, dir)
		if err := os.Truncate(filepath.Join(crashDir, filepath.Base(journalPath)), cut); err != nil {
			t.Fatal(err)
		}
		p2, reg2, perf2 := openHarness(t, crashDir, PersistOptions{Fsync: false})
		want := images[steps-2]
		if cut == lastSize {
			want = images[steps-1]
		} else if cut > prevSize && !p2.Recovery().TornTail {
			t.Errorf("cut=%d: torn tail not reported", cut)
		}
		if got := imageOf(t, reg2, perf2); !got.equal(want) {
			t.Errorf("cut=%d: recovered %+v, want %+v", cut, got, want)
		}
		// The reopened store must keep accepting (and re-journaling) work.
		mutationStep(t, p2, reg2, 0)
		p2.Close()
	}
}

// TestCrashRecoveryRandomOffsets hard-kills at randomized offsets across
// the WHOLE journal: every recovered store must equal some prefix of the
// committed history — never a state that interleaves or invents mutations.
func TestCrashRecoveryRandomOffsets(t *testing.T) {
	dir := t.TempDir()
	p, reg, perf := openHarness(t, dir, PersistOptions{Fsync: false})

	const steps = 24
	sizes := []int64{0}
	images := []storeImage{imageOf(t, reg, perf)} // index k = after k committed steps
	for i := 0; i < steps; i++ {
		mutationStep(t, p, reg, i)
		sizes = append(sizes, p.JournalSize())
		images = append(images, imageOf(t, reg, perf))
	}
	journalBase := filepath.Base(p.ActiveJournalPath())
	p.Close()

	rng := rand.New(rand.NewSource(42))
	total := sizes[len(sizes)-1]
	for trial := 0; trial < 40; trial++ {
		cut := int64(rng.Intn(int(total + 1)))
		crashDir := copyDir(t, dir)
		if err := os.Truncate(filepath.Join(crashDir, journalBase), cut); err != nil {
			t.Fatal(err)
		}
		_, reg2, perf2 := openHarness(t, crashDir, PersistOptions{Fsync: false})
		got := imageOf(t, reg2, perf2)

		// The recovered image must be the committed prefix whose journal
		// fits entirely within the cut — deterministically, the largest k
		// with sizes[k] <= cut.
		k := 0
		for i, s := range sizes {
			if s <= cut {
				k = i
			}
		}
		if !got.equal(images[k]) {
			t.Errorf("cut=%d: recovered store is not the %d-step committed prefix", cut, k)
		}
	}
}

// TestCrashRecoveryWithSnapshots reruns the property with aggressive
// automatic compaction, so recovery exercises snapshot load + short replay
// instead of a full-journal replay.
func TestCrashRecoveryWithSnapshots(t *testing.T) {
	dir := t.TempDir()
	p, reg, perf := openHarness(t, dir, PersistOptions{Fsync: false, SnapshotEvery: 5})

	const steps = 23
	var last storeImage
	for i := 0; i < steps; i++ {
		mutationStep(t, p, reg, i)
		last = imageOf(t, reg, perf)
	}
	p.Close()

	p2, reg2, perf2 := openHarness(t, dir, PersistOptions{Fsync: false})
	if got := imageOf(t, reg2, perf2); !got.equal(last) {
		t.Fatalf("snapshot+journal recovery diverged:\n got %+v\nwant %+v", got, last)
	}
	if p2.Recovery().SnapshotSeq == 0 {
		t.Fatal("recovery did not start from a snapshot")
	}
	p2.Close()
}

// TestCorruptSnapshotFallsBack flips bytes in the newest snapshot: open
// must refuse it, fall back to the previous snapshot, and rebuild the same
// committed state from the longer replay — then immediately write a fresh
// good snapshot.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	p, reg, perf := openHarness(t, dir, PersistOptions{Fsync: false})

	var last storeImage
	for i := 0; i < 12; i++ {
		mutationStep(t, p, reg, i)
		last = imageOf(t, reg, perf)
	}
	// Two manual compactions leave snapshot seq 1 (fallback) and seq 2.
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 16; i++ {
		mutationStep(t, p, reg, i)
		last = imageOf(t, reg, perf)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	p.Close()

	// Corrupt the newest snapshot's body.
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want >= 2 snapshots, got %v (%v)", snaps, err)
	}
	newest := snaps[len(snaps)-1]
	data, _ := os.ReadFile(newest)
	data[len(data)/2] ^= 0xff
	os.WriteFile(newest, data, 0o644)

	p2, reg2, perf2 := openHarness(t, dir, PersistOptions{Fsync: false})
	if got := imageOf(t, reg2, perf2); !got.equal(last) {
		t.Fatalf("fallback recovery diverged:\n got %+v\nwant %+v", got, last)
	}
	if p2.Recovery().SnapshotFallbacks == 0 {
		t.Fatal("corrupt snapshot was not reported as a fallback")
	}
	// Post-recovery compaction must have replaced the corrupt snapshot.
	st, err := readSnapshot(newestSnapshot(t, dir))
	if err != nil {
		t.Fatalf("post-recovery snapshot unreadable: %v", err)
	}
	if st.StoreVersion != last.Version {
		t.Fatalf("fresh snapshot version %d, want %d", st.StoreVersion, last.Version)
	}
	p2.Close()
}

func newestSnapshot(t testing.TB, dir string) string {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots in %s (%v)", dir, err)
	}
	return snaps[len(snaps)-1]
}

// TestJournalFailureDegradesToReadOnly verifies the degradation contract
// at the persistence layer: after an append failure, mutations return
// ErrReadOnly, nothing half-applied leaks, and reads keep working.
func TestJournalFailureDegradesToReadOnly(t *testing.T) {
	dir := t.TempDir()
	p, reg, perf := openHarness(t, dir, PersistOptions{Fsync: false})
	for i := 0; i < 4; i++ {
		mutationStep(t, p, reg, i)
	}
	before := imageOf(t, reg, perf)

	p.SimulateJournalFailure()
	prepared, err := reg.Prepare("degraded", platformXML("degraded", 1))
	if err != nil {
		t.Fatal(err)
	}
	applied := false
	err = p.LogPut("degraded", prepared.XML(), func() { applied = true })
	if !errorsIsReadOnly(err) {
		t.Fatalf("first failing append err = %v, want journal failure", err)
	}
	if applied {
		t.Fatal("commit callback ran despite journal failure")
	}
	if !p.ReadOnly() {
		t.Fatal("store did not degrade to read-only")
	}
	// Subsequent mutations short-circuit with ErrReadOnly.
	if err := p.LogDelete("plat-0", func() {}); !errorsIsReadOnly(err) {
		t.Fatalf("post-degrade err = %v, want ErrReadOnly", err)
	}
	// Reads are untouched.
	if got := imageOf(t, reg, perf); !got.equal(before) {
		t.Fatal("read path changed after degradation")
	}
	h := p.Health()
	if !h.ReadOnly || h.LastError == "" {
		t.Fatalf("health = %+v, want read_only with last_error", h)
	}
	p.Close()

	// A restart recovers everything committed before the failure and
	// leaves read-only mode behind.
	p2, reg2, perf2 := openHarness(t, dir, PersistOptions{Fsync: false})
	if p2.ReadOnly() {
		t.Fatal("restart still read-only")
	}
	if got := imageOf(t, reg2, perf2); !got.equal(before) {
		t.Fatal("restart after degradation lost committed state")
	}
	p2.Close()
}

// Persistence.Put is the one write path of a document, with or without a
// journal: a nil Persistence commits directly, a live one journals exactly
// the uploads that change the store, and a broken one commits nothing.
func TestPutJournalsOrCommitsDirectly(t *testing.T) {
	doc, doc2 := platformXML("a", 1), platformXML("a", 2)

	var none *Persistence
	mem := New()
	if e, changed, err := none.Put(mem, "a", doc); err != nil || !changed || e.Revision != 1 {
		t.Fatalf("in-memory Put = (%+v, %v, %v), want revision 1, changed", e, changed, err)
	}
	if _, changed, err := none.Put(mem, "a", doc); err != nil || changed {
		t.Fatalf("in-memory re-Put = (changed %v, %v), want unchanged", changed, err)
	}
	if _, _, err := none.Put(mem, "a", []byte("<Platform")); err == nil || errors.Is(err, ErrReadOnly) {
		t.Fatalf("malformed document: err = %v, want Prepare's error", err)
	}

	dir := t.TempDir()
	p, reg, _ := openHarness(t, dir, PersistOptions{Fsync: false})
	for i, step := range []struct {
		doc     []byte
		changed bool
		appends uint64
	}{{doc, true, 1}, {doc, false, 1}, {doc2, true, 2}} {
		_, changed, err := p.Put(reg, "a", step.doc)
		if err != nil || changed != step.changed {
			t.Fatalf("step %d: Put = (changed %v, %v), want changed %v", i, changed, err, step.changed)
		}
		if got := p.Stats().Appends; got != step.appends {
			t.Fatalf("step %d: %d journal records, want %d (an identical re-upload journals nothing)", i, got, step.appends)
		}
	}
	p.SimulateJournalFailure()
	if _, _, err := p.Put(reg, "b", doc); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put on a broken journal: err = %v, want ErrReadOnly", err)
	}
	if _, ok := reg.Get("b"); ok {
		t.Fatal("Put committed a document the journal refused")
	}
	p.Close()
	p2, reg2, _ := openHarness(t, dir, PersistOptions{Fsync: false})
	defer p2.Close()
	if e, ok := reg2.Get("a"); !ok || e.Revision != 2 || reg2.Len() != 1 {
		t.Fatalf("recovered store: a = %+v (%v), %d platforms; want a at revision 2 alone", e, ok, reg2.Len())
	}
}

func errorsIsReadOnly(err error) bool {
	return err != nil && strings.Contains(err.Error(), "read-only")
}

// TestFsyncdRecoveryIdentical runs the whole loop with fsync enabled (the
// production default) to cover the fsync code path and its observer hook.
func TestFsyncdRecoveryIdentical(t *testing.T) {
	dir := t.TempDir()
	p, reg, perf := openHarness(t, dir, PersistOptions{Fsync: true})
	var syncs int
	p.SetFsyncObserver(func(time.Duration) { syncs++ })
	var last storeImage
	for i := 0; i < 6; i++ {
		mutationStep(t, p, reg, i)
		last = imageOf(t, reg, perf)
	}
	if syncs == 0 {
		t.Fatal("fsync observer never fired")
	}
	p.Close()

	_, reg2, perf2 := openHarness(t, dir, PersistOptions{Fsync: true})
	if got := imageOf(t, reg2, perf2); !got.equal(last) {
		t.Fatal("fsync'd store did not recover identically")
	}
}

// BenchmarkJournalReplay measures recovery replay cost per journal record
// (the EXPERIMENTS.md recovery-time table).
func BenchmarkJournalReplay(b *testing.B) {
	dir := b.TempDir()
	p, reg, _ := openHarness(b, dir, PersistOptions{Fsync: false})
	const records = 1000
	for i := 0; i < records; i++ {
		mutationStep(b, p, reg, i)
	}
	p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg2 := New()
		perf2 := &fakePerf{}
		p2, err := OpenPersistence(dir, reg2, perf2, PersistOptions{Fsync: false, Logf: func(string, ...any) {}})
		if err != nil {
			b.Fatal(err)
		}
		p2.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*records), "µs/record")
}

// BenchmarkSnapshotLoad measures snapshot restore time as the store grows.
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, n := range []int{10, 100} {
		b.Run(fmt.Sprintf("platforms=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			p, reg, _ := openHarness(b, dir, PersistOptions{Fsync: false})
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("plat-%d", i)
				prepared, err := reg.Prepare(name, platformXML(name, i))
				if err != nil {
					b.Fatal(err)
				}
				if err := p.LogPut(name, prepared.XML(), func() { reg.CommitPrepared(prepared) }); err != nil {
					b.Fatal(err)
				}
			}
			if err := p.Compact(); err != nil {
				b.Fatal(err)
			}
			p.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p2, err := OpenPersistence(dir, New(), &fakePerf{}, PersistOptions{Fsync: false, Logf: func(string, ...any) {}})
				if err != nil {
					b.Fatal(err)
				}
				p2.Close()
			}
		})
	}
}
