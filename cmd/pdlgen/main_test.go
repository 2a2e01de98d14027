package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pdlxml"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gpgpu-node", "xeon-2gpu", "cell-blade"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestEmitCatalogPlatformToStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-platform", "gpgpu-node"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{`<Master id="0"`, `<Worker id="1"`, `type="rDMA"`} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// Output reparses.
	if _, err := pdlxml.Unmarshal(out.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestEmitToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.pdl.xml")
	var out bytes.Buffer
	if err := run([]string{"-platform", "xeon-2gpu", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	pl, err := pdlxml.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Name != "xeon-2gpu" {
		t.Fatalf("name = %q", pl.Name)
	}
}

func TestDiscoverWithGPUs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-discover", "-gpus", "2", "-concrete"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "GeForce GTX 480") || !strings.Contains(s, "GeForce GTX 285") {
		t.Fatalf("devices missing:\n%s", s)
	}
	if !strings.Contains(s, "ocl:name") {
		t.Fatal("concrete properties missing")
	}
}

func TestErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"no args", nil, "nothing to do"},
		{"unknown platform", []string{"-platform", "vax"}, "unknown catalog platform"},
		{"conflicting flags", []string{"-platform", "gpgpu-node", "-discover"}, "not both"},
		{"bad flag", []string{"-bogusflag"}, "bogusflag"},
		{"gpus on a catalog platform", []string{"-platform", "xeon-cpu", "-gpus", "2"}, "-gpus needs -discover"},
		{"concrete on a catalog platform", []string{"-platform", "gtx480", "-concrete"}, "-concrete needs -discover"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%q) = %v; want an error containing %q", c.args, err, c.want)
			}
			if strings.Contains(out.String(), "<Platform") {
				t.Fatalf("run(%q) wrote a document:\n%s", c.args, &out)
			}
		})
	}
}
