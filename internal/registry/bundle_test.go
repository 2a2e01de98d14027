package registry

import (
	"archive/tar"
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/predict"
)

// TestBundleRoundTripBitIdentical drives the acceptance criterion:
// export → wipe → import reproduces registry state bit-identically — same
// ETags, same revisions, same store version, same perfmodel samples — this
// time through the real predict.Tuner rather than the harness fake.
func TestBundleRoundTripBitIdentical(t *testing.T) {
	srcDir := t.TempDir()
	reg := New()
	tuner := predict.NewTuner()
	p, err := OpenPersistence(srcDir, reg, tuner, PersistOptions{Fsync: false, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	// Build state: a real platform (so patterns match), an overwrite (so a
	// revision > 1 exists), and observations (so perfmodels are non-empty).
	gtx := readTestPlatform(t, "gtx480")
	for _, step := range []struct {
		name string
		xml  []byte
	}{
		{"gtx480", gtx},
		{"edited", platformXML("edited", 1)},
		{"edited", platformXML("edited", 2)},
	} {
		prepared, err := reg.Prepare(step.name, step.xml)
		if err != nil {
			t.Fatal(err)
		}
		if cur, ok := reg.Get(step.name); ok && cur.ETag == prepared.ETag() {
			continue
		}
		if err := p.LogPut(step.name, prepared.XML(), func() { reg.CommitPrepared(prepared) }); err != nil {
			t.Fatal(err)
		}
	}
	e, _ := reg.Get("gtx480")
	for i := 0; i < 3; i++ {
		size, secs := 256*float64(i+1), 0.002*float64(i+1)
		err := p.LogObserve("gtx480", "dgemm", size, secs, func() {
			if err := tuner.Observe(e.Platform, "dgemm", size, secs); err != nil {
				t.Fatal(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	srcImage := imageOf(t, reg, tuner)

	var bundle bytes.Buffer
	man, err := p.WriteBundle(&bundle)
	if err != nil {
		t.Fatal(err)
	}
	if man.Platforms != 2 || man.StoreVersion != reg.Version() {
		t.Fatalf("manifest = %+v", man)
	}
	p.Close()

	// "Wipe": a brand-new empty environment.
	dstDir := t.TempDir()
	if _, err := ImportBundle(bytes.NewReader(bundle.Bytes()), dstDir); err != nil {
		t.Fatal(err)
	}
	reg2 := New()
	tuner2 := predict.NewTuner()
	p2, err := OpenPersistence(dstDir, reg2, tuner2, PersistOptions{Fsync: false, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()

	if got := imageOf(t, reg2, tuner2); !got.equal(srcImage) {
		t.Fatalf("import diverged:\n got %+v\nwant %+v", got, srcImage)
	}
	// XML served after import must be byte-identical too (same canonical
	// form behind the same ETag).
	g1, _ := reg.Get("edited")
	g2, ok := reg2.Get("edited")
	if !ok || !bytes.Equal(g1.XML, g2.XML) || g1.Revision != g2.Revision {
		t.Fatal("imported canonical XML or revision differs")
	}

	// A bundle is a compacted journal, so a data dir's own journal imports
	// as one, mutations behind its image included.
	if err := p2.LogDelete("edited", func() { reg2.Delete("edited") }); err != nil {
		t.Fatal(err)
	}
	want := imageOf(t, reg2, tuner2)
	journal, err := os.ReadFile(p2.ActiveJournalPath())
	if err != nil {
		t.Fatal(err)
	}
	dir3 := t.TempDir()
	if info, err := ImportBundle(bytes.NewReader(journal), dir3); err != nil || info.Platforms != 2 {
		t.Fatalf("import of a data dir's journal = %+v, %v", info, err)
	}
	reg3, tuner3 := New(), predict.NewTuner()
	p3, err := OpenPersistence(dir3, reg3, tuner3, PersistOptions{Fsync: false, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if got := imageOf(t, reg3, tuner3); !got.equal(want) {
		t.Fatalf("import of a journal diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestImportRefusesNonEmptyDirAndGarbage(t *testing.T) {
	srcDir := t.TempDir()
	reg := New()
	p, err := OpenPersistence(srcDir, reg, nil, PersistOptions{Fsync: false, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var bundle bytes.Buffer
	if _, err := p.WriteBundle(&bundle); err != nil {
		t.Fatal(err)
	}

	// Non-empty target refused: srcDir already holds a journal.
	if _, err := ImportBundle(bytes.NewReader(bundle.Bytes()), srcDir); err == nil || !strings.Contains(err.Error(), "not empty") {
		t.Fatalf("import into non-empty dir err = %v", err)
	}
	// Garbage refused, and so is a bundle whose image is cut short, leaving
	// the target empty.
	dst := t.TempDir()
	for _, bad := range [][]byte{[]byte("not a journal"), bundle.Bytes()[:bundle.Len()-1]} {
		if _, err := ImportBundle(bytes.NewReader(bad), dst); err == nil {
			t.Fatalf("bundle %q accepted", bad)
		}
		if ents, _ := os.ReadDir(dst); len(ents) != 0 {
			t.Fatalf("a refused bundle left %d files behind", len(ents))
		}
	}
	// A tar bundle from an older pdlserved is refused with a message.
	var old bytes.Buffer
	tw := tar.NewWriter(&old)
	tw.WriteHeader(&tar.Header{Name: "MANIFEST.json", Mode: 0o644, Size: 2})
	tw.Write([]byte("{}"))
	tw.Close()
	if _, err := ImportBundle(&old, dst); err == nil || !strings.Contains(err.Error(), "older pdlserved") {
		t.Fatalf("import of a tar bundle: err = %v", err)
	}
}
