package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pdlxml"
	"repro/internal/query"
)

func gtx480XML(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "discover", "platforms", "gtx480.pdl.xml"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustFilters(t testing.TB, pairs map[string][]string) *query.Filters {
	t.Helper()
	f, err := query.ParseFilters(pairs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPutGetRoundtrip(t *testing.T) {
	r := New()
	entry, changed, err := r.Put("gtx480", gtx480XML(t))
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("first Put reported no change")
	}
	if entry.Revision != 1 {
		t.Fatalf("revision = %d; want 1", entry.Revision)
	}
	if r.Version() != 1 {
		t.Fatalf("store version = %d; want 1", r.Version())
	}
	got, ok := r.Get("gtx480")
	if !ok || got != entry {
		t.Fatal("Get did not return the committed entry")
	}
	if got.Platform.Name != "gtx480" {
		t.Fatalf("platform name = %q", got.Platform.Name)
	}
	if !strings.HasPrefix(got.ETag, `"`) || !strings.HasSuffix(got.ETag, `"`) {
		t.Fatalf("ETag %q is not quoted", got.ETag)
	}
	// The stored canonical XML must round-trip.
	if _, err := pdlxml.Unmarshal(got.XML); err != nil {
		t.Fatalf("canonical XML does not parse: %v", err)
	}
}

// Satellite: re-uploading byte-identical XML must not bump any version.
func TestIdenticalUploadDoesNotBumpVersion(t *testing.T) {
	r := New()
	doc := gtx480XML(t)
	first, _, err := r.Put("gtx480", doc)
	if err != nil {
		t.Fatal(err)
	}
	v := r.Version()

	second, changed, err := r.Put("gtx480", doc)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("identical upload reported a change")
	}
	if second != first {
		t.Fatal("identical upload replaced the entry")
	}
	if r.Version() != v {
		t.Fatalf("store version bumped %d -> %d on identical upload", v, r.Version())
	}

	// Equivalent-but-reformatted XML (same canonical form) is also a no-op.
	reformatted := strings.ReplaceAll(string(doc), "\n", "\n ")
	third, changed, err := r.Put("gtx480", []byte(reformatted))
	if err != nil {
		t.Fatal(err)
	}
	if changed || third != first {
		t.Fatal("reformatted-identical upload was treated as a change")
	}
}

func TestChangedUploadBumpsVersionAndInvalidates(t *testing.T) {
	r := New()
	if _, _, err := r.Put("gtx480", gtx480XML(t)); err != nil {
		t.Fatal(err)
	}
	f := mustFilters(t, map[string][]string{"kind": {"worker"}})
	if _, cached, err := r.Query("gtx480", f); err != nil || cached {
		t.Fatalf("first query: cached=%v err=%v", cached, err)
	}
	if _, cached, _ := r.Query("gtx480", f); !cached {
		t.Fatal("second identical query missed the cache")
	}

	// A semantically different document: change the worker's group.
	modified := strings.Replace(string(gtx480XML(t)), "devset", "altset", 1)
	e, changed, err := r.Put("gtx480", []byte(modified))
	if err != nil {
		t.Fatal(err)
	}
	if !changed || e.Revision != 2 {
		t.Fatalf("changed=%v revision=%d; want true, 2", changed, e.Revision)
	}
	if r.Version() != 2 {
		t.Fatalf("store version = %d; want 2", r.Version())
	}
	// The cached result for the old revision must not be served.
	if _, cached, _ := r.Query("gtx480", f); cached {
		t.Fatal("query after update served a stale cache entry")
	}
}

func TestPutRejectsUnparseableAndInvalid(t *testing.T) {
	r := New()
	if _, _, err := r.Put("bad", []byte("<not-pdl>")); err == nil {
		t.Fatal("unparseable document accepted")
	}
	// Structurally invalid: Worker with a duplicated id.
	doc := `<Platform name="dup" schemaVersion="1.0">
  <Master id="m"><PUDescriptor><Property fixed="true"><name>ARCHITECTURE</name><value>x86</value></Property></PUDescriptor>
    <Worker id="w"><PUDescriptor><Property fixed="true"><name>ARCHITECTURE</name><value>gpu</value></Property></PUDescriptor></Worker>
    <Worker id="w"><PUDescriptor><Property fixed="true"><name>ARCHITECTURE</name><value>gpu</value></Property></PUDescriptor></Worker>
  </Master>
</Platform>`
	_, _, err := r.Put("dup", []byte(doc))
	if err == nil {
		t.Fatal("invalid platform accepted")
	}
	ve, ok := AsValidationError(err)
	if !ok {
		t.Fatalf("error %T is not a *ValidationError: %v", err, err)
	}
	if len(ve.Problems) == 0 {
		t.Fatal("validation error carries no problems")
	}
	if r.Len() != 0 || r.Version() != 0 {
		t.Fatal("rejected upload mutated the store")
	}
	if _, _, err := r.Put("  ", gtx480XML(t)); err == nil {
		t.Fatal("blank name accepted")
	}
}

func TestDeleteAndList(t *testing.T) {
	r := New()
	if _, _, err := r.Put("a", gtx480XML(t)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Put("b", gtx480XML(t)); err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, e := range r.List() {
		names = append(names, e.Name)
	}
	if fmt.Sprint(names) != "[a b]" {
		t.Fatalf("List = %v", names)
	}
	if !r.Delete("a") {
		t.Fatal("Delete(a) = false")
	}
	if r.Delete("a") {
		t.Fatal("double delete reported success")
	}
	if r.Len() != 1 || r.Version() != 3 {
		t.Fatalf("len=%d version=%d; want 1, 3", r.Len(), r.Version())
	}
}

func TestQueryResults(t *testing.T) {
	r := New()
	if _, _, err := r.Put("gtx480", gtx480XML(t)); err != nil {
		t.Fatal(err)
	}
	views, _, err := r.Query("gtx480", mustFilters(t, map[string][]string{
		"kind": {"worker"}, "group": {"devset"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].ID != "dev0" {
		t.Fatalf("views = %+v; want [dev0]", views)
	}
	if views[0].Class != "Worker" || views[0].Arch != "gpu" {
		t.Fatalf("view = %+v", views[0])
	}
	if views[0].Props["VENDOR"] != "Nvidia" {
		t.Fatalf("props = %v", views[0].Props)
	}
	if _, _, err := r.Query("nope", mustFilters(t, nil)); err == nil {
		t.Fatal("query against unknown platform succeeded")
	}
}

func TestCacheDisabled(t *testing.T) {
	r := New(WithCacheSize(0))
	if _, _, err := r.Put("gtx480", gtx480XML(t)); err != nil {
		t.Fatal(err)
	}
	f := mustFilters(t, map[string][]string{"kind": {"worker"}})
	for i := 0; i < 3; i++ {
		if _, cached, err := r.Query("gtx480", f); err != nil || cached {
			t.Fatalf("iteration %d: cached=%v err=%v", i, cached, err)
		}
	}
	if st := r.CacheStats(); st.Hits != 0 {
		t.Fatalf("disabled cache recorded %d hits", st.Hits)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("p\x00e\x00a", 1)
	c.Put("p\x00e\x00b", 2)
	if _, ok := c.Get("p\x00e\x00a"); !ok {
		t.Fatal("a evicted early")
	}
	c.Put("p\x00e\x00c", 3) // evicts b (least recently used)
	if _, ok := c.Get("p\x00e\x00b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("p\x00e\x00a"); !ok {
		t.Fatal("a lost")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if n := c.InvalidatePlatform("p"); n != 2 {
		t.Fatalf("invalidated %d; want 2", n)
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after invalidation", c.Len())
	}
}

// Entries must behave as immutable snapshots: a reader holding an entry
// across an update keeps seeing the old revision consistently.
func TestSnapshotIsolation(t *testing.T) {
	r := New()
	if _, _, err := r.Put("gtx480", gtx480XML(t)); err != nil {
		t.Fatal(err)
	}
	old, _ := r.Get("gtx480")
	modified := strings.Replace(string(gtx480XML(t)), "devset", "altset", 1)
	if _, _, err := r.Put("gtx480", []byte(modified)); err != nil {
		t.Fatal(err)
	}
	// The old snapshot still answers queries about the old document.
	if !old.Platform.FindPU("dev0").InGroup("devset") {
		t.Fatal("old snapshot mutated by update")
	}
	cur, _ := r.Get("gtx480")
	if cur == old {
		t.Fatal("update did not produce a fresh entry")
	}
	if !cur.Platform.FindPU("dev0").InGroup("altset") {
		t.Fatal("new snapshot missing the update")
	}
}

// Hammer the store from concurrent writers and readers; run under -race via
// the Makefile race subset.
func TestConcurrentPutQueryDelete(t *testing.T) {
	r := New(WithCacheSize(8))
	doc := gtx480XML(t)
	alt := []byte(strings.Replace(string(doc), "devset", "altset", 1))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("p%d", i%3)
				body := doc
				if i%2 == 0 {
					body = alt
				}
				if _, _, err := r.Put(name, body); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, _ := query.ParseFilters(map[string][]string{"kind": {"worker"}})
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("p%d", i%3)
				views, _, err := r.Query(name, f)
				if err != nil {
					continue // not yet uploaded or just deleted
				}
				for _, v := range views {
					if v.Class != "Worker" {
						t.Errorf("non-worker %+v in worker query", v)
						return
					}
				}
				r.List()
				r.Version()
			}
		}()
	}
	wg.Wait()
	if r.Len() != 3 {
		t.Fatalf("len = %d; want 3", r.Len())
	}
}

func TestViewsOfHandlesBuilderPlatforms(t *testing.T) {
	pl := core.NewBuilder("b").
		Master("m", core.Arch("x86"), core.Qty(2), core.InGroups("g")).
		MustBuild()
	views := viewsOf(pl.AllPUs())
	if len(views) != 1 || views[0].Quantity != 2 || views[0].Groups[0] != "g" {
		t.Fatalf("views = %+v", views)
	}
}
