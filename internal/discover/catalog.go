package discover

import (
	"bytes"
	"embed"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/pdlxml"
)

// The platform catalog is the named, ready-made PDL descriptions used
// throughout the examples, tools and benchmark harnesses. Every fixed platform
// is one document, platforms/NAME.pdl.xml: its first XML comment is its
// one-line description, and its sim:-typed properties are the simulator's
// calibration (PEAK_GFLOPS_DP is always per single unit instance; a Master
// with quantity 8 stands for 8 such cores), each explained by an XML comment
// beside it. Only this-host is generated, because it is a probe.
//
//go:embed platforms/*.pdl.xml
var platforms embed.FS

const (
	platformExt = ".pdl.xml"
	thisHost    = "this-host"
)

type catalogFile struct {
	pl  *core.Platform
	doc string
}

// catalog parses every embedded document once; Platform hands out clones.
var catalog = sync.OnceValues(func() (map[string]catalogFile, error) {
	files, err := platforms.ReadDir("platforms")
	if err != nil {
		return nil, err
	}
	out := make(map[string]catalogFile, len(files))
	for _, f := range files {
		data, err := platforms.ReadFile("platforms/" + f.Name())
		if err != nil {
			return nil, err
		}
		pl, err := pdlxml.Unmarshal(data)
		if err != nil {
			return nil, fmt.Errorf("discover: catalog file %s: %w", f.Name(), err)
		}
		_, rest, _ := bytes.Cut(data, []byte("<!--"))
		doc, _, _ := bytes.Cut(rest, []byte("-->"))
		out[strings.TrimSuffix(f.Name(), platformExt)] = catalogFile{pl, strings.TrimSpace(string(doc))}
	}
	return out, nil
})

// Platform returns a fresh copy of the named catalog platform.
func Platform(name string) (*core.Platform, error) {
	if name == thisHost {
		return probeThisHost()
	}
	cat, err := catalog()
	if err != nil {
		return nil, err
	}
	e, ok := cat[name]
	if !ok {
		return nil, fmt.Errorf("discover: unknown catalog platform %q (known: %v)", name, CatalogNames())
	}
	return e.pl.Clone(), nil
}

// probeThisHost describes the machine running this process, with a
// conservative generic calibration so sim-mode still works.
func probeThisHost() (*core.Platform, error) {
	pl, err := Generate(Options{Name: thisHost})
	if err != nil {
		return nil, err
	}
	m := pl.FindPU("host")
	m.Descriptor.Set(core.Property{Name: "PEAK_GFLOPS_DP", Value: "8", Fixed: true, Type: simType})
	m.Descriptor.Set(core.Property{Name: "DGEMM_EFFICIENCY", Value: "0.7", Fixed: true, Type: simType})
	return pl, nil
}

// MustPlatform is Platform for fixtures; it panics on error.
func MustPlatform(name string) *core.Platform {
	pl, err := Platform(name)
	if err != nil {
		panic(err)
	}
	return pl
}

// CatalogNames lists the available platform names sorted alphabetically: the
// embedded documents plus this-host.
func CatalogNames() []string {
	files, _ := platforms.ReadDir("platforms") // an embedded directory cannot fail to list
	names := []string{thisHost}
	for _, f := range files {
		names = append(names, strings.TrimSuffix(f.Name(), platformExt))
	}
	slices.Sort(names)
	return names
}

// CatalogDoc returns the one-line description of a catalog platform.
func CatalogDoc(name string) string {
	if name == thisHost {
		return "the machine running this process, probed via the Go runtime"
	}
	cat, _ := catalog() // a catalog that fails to parse has no docs; Platform reports why
	return cat[name].doc
}
