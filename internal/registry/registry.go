// Package registry is a versioned, concurrency-safe in-memory store of
// parsed PDL platforms: the shared substrate behind cmd/pdlserved. Instead
// of every consumer re-parsing XML from disk, tools upload a document once
// and query the parsed form over a stable interface.
//
// Concurrency model — copy-on-write snapshots. The entry map is immutable
// once published: writers build a new map under the write lock and swap it
// in; readers take the current map pointer under a read lock and then work
// lock-free on an internally consistent snapshot. Entries themselves are
// never mutated after publication, so a reader holding an *Entry (or the
// *core.Platform inside it) can keep using it while later uploads supersede
// it — exactly the property the HTTP layer needs to evaluate queries without
// holding any lock.
//
// Versioning — content hashes. Each entry carries an ETag derived from the
// SHA-256 of the canonical (re-marshalled) XML, so re-uploading a
// byte-identical or semantically identical document is a no-op: the version
// does not bump, caches stay warm, and conditional HTTP requests can answer
// 304. The store version counts committed changes across all platforms.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/pdlxml"
	"repro/internal/query"
	"repro/internal/schema"
)

// Entry is one published platform revision. Entries are immutable after
// publication; a new upload produces a new Entry.
type Entry struct {
	Name     string
	Platform *core.Platform
	XML      []byte // canonical marshalled form (what GET serves)
	ETag     string // strong ETag over the canonical form, quoted
	Revision uint64 // per-platform revision, 1 on first upload
	Warnings []string

	// root is the pre-built query over the parsed platform. query.Q derives
	// new sets on filtering and never mutates shared state, so concurrent
	// requests chain filters off this one root (see the concurrent-readers
	// test in internal/query).
	root *query.Q
}

// Query returns the entry's shared query root.
func (e *Entry) Query() *query.Q { return e.root }

// ValidationError carries the schema/structural problems of a rejected
// upload, so HTTP callers can render them as a 422 body.
type ValidationError struct {
	Name     string
	Problems []string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("registry: platform %q invalid: %s", e.Name, strings.Join(e.Problems, "; "))
}

// AsValidationError unwraps a *ValidationError, if err is one.
func AsValidationError(err error) (*ValidationError, bool) {
	ve, ok := err.(*ValidationError)
	return ve, ok
}

// PUView is the JSON-serialisable projection of one matched PU returned by
// Query.
type PUView struct {
	ID       string            `json:"id"`
	Name     string            `json:"name,omitempty"`
	Class    string            `json:"class"`
	Arch     string            `json:"arch,omitempty"`
	Quantity int               `json:"quantity"`
	Groups   []string          `json:"groups,omitempty"`
	Props    map[string]string `json:"props,omitempty"`
}

// Registry is the store. The zero value is not usable; call New.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry // copy-on-write: replaced wholesale on commit
	version uint64            // bumps on every committed change (put or delete)

	schemas *schema.Registry
	cache   *Cache
}

// Option configures a Registry.
type Option func(*Registry)

// WithCacheSize sets the query-result cache capacity (default 256; <= 0
// disables caching).
func WithCacheSize(n int) Option {
	return func(r *Registry) { r.cache = NewCache(n) }
}

// New returns an empty registry.
func New(opts ...Option) *Registry {
	r := &Registry{
		entries: map[string]*Entry{},
		schemas: schema.Default(),
		cache:   NewCache(256),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// etagOf computes the strong ETag of a canonical document.
func etagOf(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// Prepared is a parsed, validated, canonicalised document ready to commit.
// Splitting Put into Prepare + CommitPrepared lets the durability layer
// order the write-ahead journal append between validation and the in-memory
// commit: nothing invalid is ever journaled, and nothing is acknowledged
// before it is durable.
type Prepared struct {
	name      string
	pl        *core.Platform
	canonical []byte
	etag      string
	warnings  []string
}

// Name returns the registry key the document will commit under.
func (p *Prepared) Name() string { return p.name }

// XML returns the canonical marshalled document (what the journal records).
func (p *Prepared) XML() []byte { return p.canonical }

// ETag returns the content-hash ETag the committed entry will carry.
func (p *Prepared) ETag() string { return p.etag }

// Prepare parses, validates and canonicalises one document without touching
// the store. The returned Prepared can be committed with CommitPrepared.
func (r *Registry) Prepare(name string, xmlDoc []byte) (*Prepared, error) {
	if strings.TrimSpace(name) == "" {
		return nil, fmt.Errorf("registry: empty platform name")
	}
	pl, err := pdlxml.Unmarshal(xmlDoc)
	if err != nil {
		return nil, fmt.Errorf("registry: parse %q: %w", name, err)
	}
	rep := schema.ValidatePlatform(pl, r.schemas)
	if !rep.OK() {
		return nil, &ValidationError{Name: name, Problems: rep.Errors}
	}
	canonical, err := pdlxml.Marshal(pl)
	if err != nil {
		return nil, fmt.Errorf("registry: canonicalise %q: %w", name, err)
	}
	return &Prepared{
		name:      name,
		pl:        pl,
		canonical: canonical,
		etag:      etagOf(canonical),
		warnings:  rep.Warnings,
	}, nil
}

// CommitPrepared publishes a prepared document. Committing a document whose
// canonical form matches the current entry returns (existing, false) without
// bumping any version or touching the cache.
func (r *Registry) CommitPrepared(p *Prepared) (*Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.entries[p.name]; ok && cur.ETag == p.etag {
		return cur, false
	}
	entry := &Entry{
		Name:     p.name,
		Platform: p.pl,
		XML:      p.canonical,
		ETag:     p.etag,
		Revision: 1,
		Warnings: p.warnings,
		root:     query.New(p.pl),
	}
	if cur, ok := r.entries[p.name]; ok {
		entry.Revision = cur.Revision + 1
	}
	next := make(map[string]*Entry, len(r.entries)+1)
	for k, v := range r.entries {
		next[k] = v
	}
	next[p.name] = entry
	r.entries = next
	r.version++
	r.cache.InvalidatePlatform(p.name)
	return entry, true
}

// Put parses, validates and commits one platform under the given name. The
// name is authoritative: it may differ from the document's own Platform
// name (the registry key is the upload path, like an object store).
//
// Returns the committed (or already-current) entry and whether the store
// changed. Re-uploading a document whose canonical form is unchanged returns
// (existing, false, nil) without bumping any version or touching the cache.
func (r *Registry) Put(name string, xmlDoc []byte) (*Entry, bool, error) {
	p, err := r.Prepare(name, xmlDoc)
	if err != nil {
		return nil, false, err
	}
	entry, changed := r.CommitPrepared(p)
	return entry, changed, nil
}

// Get returns the current entry for name.
func (r *Registry) Get(name string) (*Entry, bool) {
	e, ok := r.snapshot()[name]
	return e, ok
}

// Delete removes a platform; reports whether it existed. Deleting bumps the
// store version and drops the platform's cached queries.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; !ok {
		return false
	}
	next := make(map[string]*Entry, len(r.entries)-1)
	for k, v := range r.entries {
		if k != name {
			next[k] = v
		}
	}
	r.entries = next
	r.version++
	r.cache.InvalidatePlatform(name)
	return true
}

// List returns the current entries sorted by name.
func (r *Registry) List() []*Entry {
	snap := r.snapshot()
	out := make([]*Entry, 0, len(snap))
	for _, e := range snap {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of stored platforms.
func (r *Registry) Len() int { return len(r.snapshot()) }

// Version returns the store version: the count of committed changes.
func (r *Registry) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// snapshot returns the current immutable entry map; safe to read without
// locks thanks to copy-on-write.
func (r *Registry) snapshot() map[string]*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries
}

// queryKey builds the cache key for a compiled query: platform name, content
// hash and canonical filter rendering. The hash makes keys self-invalidating
// across uploads; the name prefix lets InvalidatePlatform find them.
func queryKey(e *Entry, f *query.Filters) string {
	return e.Name + "\x00" + e.ETag + "\x00" + f.CacheKey()
}

// Query evaluates the filters against the named platform, serving repeated
// identical queries from the LRU cache. Reports whether the result came from
// the cache.
func (r *Registry) Query(name string, f *query.Filters) ([]PUView, bool, error) {
	e, ok := r.Get(name)
	if !ok {
		return nil, false, fmt.Errorf("registry: unknown platform %q", name)
	}
	key := queryKey(e, f)
	if v, ok := r.cache.Get(key); ok {
		return v.([]PUView), true, nil
	}
	q, err := f.Apply(e.root)
	if err != nil {
		return nil, false, err
	}
	views := viewsOf(q.All())
	r.cache.Put(key, views)
	return views, false, nil
}

// CacheStats exposes the query-cache counters (for /metrics).
func (r *Registry) CacheStats() CacheStats { return r.cache.Stats() }

// viewsOf projects matched PUs into their serialisable form.
func viewsOf(pus []*core.PU) []PUView {
	out := make([]PUView, 0, len(pus))
	for _, p := range pus {
		v := PUView{
			ID:       p.ID,
			Name:     p.Name,
			Class:    p.Class.String(),
			Arch:     p.Architecture(),
			Quantity: p.EffectiveQuantity(),
		}
		if len(p.Groups) > 0 {
			v.Groups = append([]string(nil), p.Groups...)
		}
		if len(p.Descriptor.Properties) > 0 {
			v.Props = make(map[string]string, len(p.Descriptor.Properties))
			for _, pr := range p.Descriptor.Properties {
				v.Props[pr.Name] = pr.Value
			}
		}
		out = append(out, v)
	}
	return out
}
