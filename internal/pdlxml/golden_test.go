package pdlxml

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/schema"
)

// The platform catalog's documents (internal/discover/platforms) are the
// repository's real PDL files. Read from disk, they pin the on-disk dialect:
// if Marshal output drifts (element order, attribute set, namespace
// declarations), these tests fail and the change must be deliberate.
func platformFiles(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "discover", "platforms", "*.pdl.xml"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no platform documents: %v", err)
	}
	return files
}

func fileName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".pdl.xml")
}

// TestGoldenDocumentsStable re-marshals every platform file and expects its
// bytes back, less the comment lines (comments are the author's, not data).
func TestGoldenDocumentsStable(t *testing.T) {
	for _, path := range platformFiles(t) {
		t.Run(fileName(path), func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var uncommented strings.Builder
			for _, line := range strings.SplitAfter(string(want), "\n") {
				if !strings.HasPrefix(strings.TrimSpace(line), "<!--") {
					uncommented.WriteString(line)
				}
			}
			pl, err := Unmarshal(want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Marshal(pl)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != uncommented.String() {
				t.Errorf("marshal output drifted from %s;\nchange the dialect deliberately.\n--- got ---\n%s", path, got)
			}
		})
	}
}

func TestGoldenDocumentsParseAndValidate(t *testing.T) {
	for _, path := range platformFiles(t) {
		t.Run(fileName(path), func(t *testing.T) {
			pl, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rep := schema.ValidatePlatform(pl, schema.Default())
			if !rep.OK() {
				t.Fatalf("%s fails validation: %v", path, rep.Errors)
			}
			if pl.Name != fileName(path) {
				t.Fatalf("platform name = %q", pl.Name)
			}
		})
	}
}

func TestGoldenRoundTripThroughDisk(t *testing.T) {
	// Parse file -> marshal -> parse again: byte-identical second
	// generation (idempotent fixed point of the codec).
	for _, path := range platformFiles(t) {
		t.Run(fileName(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			roundTripFixedPoint(t, data)
		})
	}
}

// roundTripFixedPoint checks that Marshal is a fixed point of its own output
// on a document Unmarshal accepts and Marshal can write.
func roundTripFixedPoint(t *testing.T, data []byte) {
	pl, err := Unmarshal(data)
	if err != nil {
		return
	}
	first, err := Marshal(pl)
	if err != nil {
		return
	}
	back, err := Unmarshal(first)
	if err != nil {
		t.Fatalf("Unmarshal rejects Marshal's output: %v\n%s", err, first)
	}
	second, err := Marshal(back)
	if err != nil {
		t.Fatalf("Marshal fails on its own output's parse: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("marshal is not idempotent over its own output:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// FuzzUnmarshal feeds the parser arbitrary bytes, seeded with the platform
// files: Unmarshal never panics, and on any document it accepts, Marshal is a
// fixed point of its own output.
func FuzzUnmarshal(f *testing.F) {
	for _, path := range platformFiles(f) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(listing1))
	f.Add([]byte(listing2))
	f.Fuzz(roundTripFixedPoint)
}
