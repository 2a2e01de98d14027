package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/discover"
	"repro/internal/pdlxml"
)

// The serve workloads' inputs. Everything here is a pure function of the
// seed, so equal seeds replay byte-identical traffic.

// reqKind is one route of the traffic mix.
type reqKind int

const (
	reqQuery   reqKind = iota // GET /platforms/{name}/pus?filters
	reqPredict                // GET /platforms/{name}/predict
	reqGetXML                 // GET /platforms/{name} with If-None-Match
	reqPut                    // PUT /platforms/{name}, a content-distinct variant
	reqObserve                // POST /platforms/{name}/observe
)

var reqKindNames = [...]string{"query", "predict", "getxml", "put", "observe"}

func (k reqKind) String() string { return reqKindNames[k] }

// request is one generated request. Due is its scheduled send time as an
// offset from the start of an open-loop phase.
type request struct {
	Kind     reqKind
	Platform string
	Due      time.Duration
	Filter   int     // reqQuery: index into the filter catalog
	Size     float64 // reqPredict, reqObserve
}

// mix is a traffic mix in percent per route; it sums to 100.
type mix [len(reqKindNames)]int

var (
	readMix  = mix{reqQuery: 70, reqPredict: 25, reqGetXML: 5}
	writeMix = mix{reqQuery: 50, reqPut: 20, reqObserve: 30}
)

// servedPlatforms are the catalog platforms a serve workload preloads: all
// but this-host, whose description depends on the machine.
func servedPlatforms() []string {
	var out []string
	for _, n := range discover.CatalogNames() {
		if n != "this-host" {
			out = append(out, n)
		}
	}
	return out
}

// filterCombo is one kind × arch × limit filter set on one platform.
type filterCombo struct {
	Platform string
	Query    string // raw URL query, "" for the unfiltered listing
}

// filterCatalog lists every kind × arch × limit combination on every given
// platform (4 × 5 × 13 = 260 each, 1560 on the six served platforms: about
// six times the 256-entry query cache), shuffled by the seed so Zipf ranks
// land on different combinations for different seeds.
func filterCatalog(platforms []string, seed int64) []filterCombo {
	kinds := []string{"", "worker", "master", "hybrid"}
	archs := []string{"", "x86", "gpu", "spe", "ppc"}
	var out []filterCombo
	for _, pl := range platforms {
		for _, k := range kinds {
			for _, a := range archs {
				for limit := 0; limit <= 12; limit++ {
					q := ""
					add := func(key, val string) {
						if q != "" {
							q += "&"
						}
						q += key + "=" + val
					}
					if k != "" {
						add("kind", k)
					}
					if a != "" {
						add("arch", a)
					}
					if limit > 0 {
						add("limit", strconv.Itoa(limit))
					}
					out = append(out, filterCombo{Platform: pl, Query: q})
				}
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// poissonSchedule returns n send times of a Poisson process of the given
// rate (exponential gaps), as offsets from the phase start.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// predictSizes lie inside the seeded observation range, so every predict
// resolves to a model estimate.
var predictSizes = []float64{2e5, 1e6, 5e6}

// genRequests draws n requests of the mix. Query filters are Zipf(s=1.1)
// over the catalog; for writeMix every request targets one of the hot
// platforms, so queries hit the platforms being rewritten. Due times are
// left zero; an open-loop phase stamps them from a poissonSchedule.
func genRequests(seed int64, m mix, n int, catalog []filterCombo, observable, hot []string) []request {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(catalog)-1))
	var byPlatform map[string][]int
	if hot != nil {
		byPlatform = map[string][]int{}
		for i, c := range catalog {
			byPlatform[c.Platform] = append(byPlatform[c.Platform], i)
		}
	}
	out := make([]request, n)
	for i := range out {
		var r request
		roll := rng.Intn(100)
		for k, share := range m {
			if roll < share {
				r.Kind = reqKind(k)
				break
			}
			roll -= share
		}
		switch r.Kind {
		case reqQuery:
			r.Filter = int(zipf.Uint64())
			if hot != nil {
				// Keep the Zipf rank but fold it onto a hot platform.
				own := byPlatform[hot[rng.Intn(len(hot))]]
				r.Filter = own[r.Filter%len(own)]
			}
			r.Platform = catalog[r.Filter].Platform
		case reqPredict:
			r.Platform = observable[rng.Intn(len(observable))]
			r.Size = predictSizes[rng.Intn(len(predictSizes))]
		case reqObserve:
			r.Platform = hot[rng.Intn(len(hot))]
			r.Size = 1e5 * float64(1+rng.Intn(100))
		case reqGetXML:
			r.Platform = catalog[rng.Intn(len(catalog))].Platform
		case reqPut:
			r.Platform = hot[rng.Intn(len(hot))]
		}
		out[i] = r
	}
	return out
}

// variantMarker is where a PUT template carries its variant number.
const variantMarker = "@@BENCH-VARIANT@@"

// putTemplate is the platform's document with one extra unfixed property on
// its first Master whose value is variantMarker. Substituting a number
// yields a valid document whose content, and therefore ETag, differs from
// every other variant's, while the PU tree that queries see is unchanged.
func putTemplate(pl *core.Platform) ([]byte, error) {
	if len(pl.Masters) == 0 {
		return nil, fmt.Errorf("platform %q has no Master to carry the variant property", pl.Name)
	}
	pl.Masters[0].Descriptor.Set(core.Property{Name: "BENCH_VARIANT", Value: variantMarker})
	return pdlxml.Marshal(pl)
}

// putVariant is variant k of a template.
func putVariant(template []byte, k int) []byte {
	return bytes.Replace(template, []byte(variantMarker), []byte(strconv.Itoa(k)), 1)
}
