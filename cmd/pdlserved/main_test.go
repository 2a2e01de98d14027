package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/predict"
	"repro/internal/registry"
)

const platformsDir = "../../internal/discover/platforms"

// mixedPreloadDir builds a preload directory with two catalog platforms
// plus one file that cannot parse.
func mixedPreloadDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"gtx480", "cell-blade"} {
		data, err := os.ReadFile(filepath.Join(platformsDir, name+".pdl.xml"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".pdl.xml"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.pdl.xml"), []byte("<Platform"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestPreloadDirSkipsInvalidFiles(t *testing.T) {
	dir := mixedPreloadDir(t)
	reg := registry.New()
	loaded, skipped, err := preloadDir(reg, nil, dir, false)
	if err != nil {
		t.Fatalf("non-strict preload failed: %v", err)
	}
	if loaded != 2 || skipped != 1 {
		t.Fatalf("loaded=%d skipped=%d, want 2/1", loaded, skipped)
	}
	if _, ok := reg.Get("gtx480"); !ok {
		t.Fatal("valid platform missing after preload")
	}
}

func TestPreloadDirStrictFailsFast(t *testing.T) {
	dir := mixedPreloadDir(t)
	reg := registry.New()
	_, _, err := preloadDir(reg, nil, dir, true)
	if err == nil || !strings.Contains(err.Error(), "broken.pdl.xml") {
		t.Fatalf("strict preload err = %v, want failure naming broken.pdl.xml", err)
	}
}

// TestPreloadJournalsThroughPersistence checks the durable path: preloaded
// documents are journaled, and a second preload of identical content is a
// content-hash no-op (journal does not grow).
func TestPreloadJournalsThroughPersistence(t *testing.T) {
	dir := mixedPreloadDir(t)
	dataDir := t.TempDir()
	reg := registry.New()
	persist, err := registry.OpenPersistence(dataDir, reg, predict.NewTuner(), registry.PersistOptions{Fsync: false, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer persist.Close()

	if _, _, err := preloadDir(reg, persist, dir, false); err != nil {
		t.Fatal(err)
	}
	size := persist.JournalSize()
	if size == 0 {
		t.Fatal("preload journaled nothing")
	}
	loaded, skipped, err := preloadDir(reg, persist, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	// Identical re-preload: counted as loaded (no error) but journals nothing.
	if loaded != 2 || skipped != 1 {
		t.Fatalf("re-preload loaded=%d skipped=%d, want 2/1", loaded, skipped)
	}
	if got := persist.JournalSize(); got != size {
		t.Fatalf("identical re-preload grew journal %d -> %d", size, got)
	}
}

// TestExportImportCommands drives the CLI subcommand plumbing end to end:
// populate a data dir, export to a tar file, import into a fresh dir, and
// open both to compare state.
func TestExportImportCommands(t *testing.T) {
	srcData := t.TempDir()
	reg := registry.New()
	persist, err := registry.OpenPersistence(srcData, reg, predict.NewTuner(), registry.PersistOptions{Fsync: false, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gtx480", "xeon-2gpu"} {
		if err := preloadOne(reg, persist, name, filepath.Join(platformsDir, name+".pdl.xml")); err != nil {
			t.Fatal(err)
		}
	}
	wantVersion := reg.Version()
	wantETags := map[string]string{}
	for _, e := range reg.List() {
		wantETags[e.Platform.Name] = e.ETag
	}
	persist.Close()

	bundle := filepath.Join(t.TempDir(), "bundle.wal")
	if err := runExport([]string{"-data-dir", srcData, "-out", bundle}); err != nil {
		t.Fatalf("export: %v", err)
	}
	dstData := filepath.Join(t.TempDir(), "imported")
	if err := runImport([]string{"-data-dir", dstData, "-in", bundle}); err != nil {
		t.Fatalf("import: %v", err)
	}

	reg2 := registry.New()
	p2, err := registry.OpenPersistence(dstData, reg2, predict.NewTuner(), registry.PersistOptions{Fsync: false, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if reg2.Version() != wantVersion || reg2.Len() != len(wantETags) {
		t.Fatalf("imported store version=%d len=%d, want %d/%d", reg2.Version(), reg2.Len(), wantVersion, len(wantETags))
	}
	for name, etag := range wantETags {
		e, ok := reg2.Get(name)
		if !ok || e.ETag != etag {
			t.Fatalf("imported %s etag drifted", name)
		}
	}

	// Importing into the now non-empty dir must refuse.
	if err := runImport([]string{"-data-dir", dstData, "-in", bundle}); err == nil {
		t.Fatal("import into non-empty dir succeeded")
	}
}
