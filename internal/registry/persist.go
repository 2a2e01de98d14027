// Persistence orchestrates the registry's durability layer: the journal
// (wal.go), compaction, recovery on open, export/import bundles, and the
// read-only degradation the HTTP layer surfaces as 503 + Retry-After.
//
// Data-dir layout — one kind of file, named by epoch sequence number:
//
//	journal-%016d.wal
//
// Journal 0 starts from the empty store; every later journal is a compacted
// one that starts from an image of the store (wal.go). A compaction writes
// journal S+1, switches appends to it, and retires the journals before S, so
// the directory always holds the current journal plus one full fallback.
// Recovery restores the newest journal whose image verifies and replays its
// mutations. If a newer journal's image does not verify, recovery falls back
// to the one before and then replays the mutations recorded behind the
// damaged image too, so a damaged image loses nothing.
package registry

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

// ErrReadOnly is returned for mutations after a journal write has failed:
// the in-memory store is still serving reads, but nothing further can be
// made durable, so nothing further is accepted.
var ErrReadOnly = errors.New("registry: persistence is read-only after a journal write failure")

// PerfState is the perfmodel side of durability: the predict.Tuner
// satisfies it. An image embeds SnapshotPerf's bytes verbatim; recovery hands
// them back to RestorePerf and replays journaled observations through
// Observe.
type PerfState interface {
	SnapshotPerf() ([]byte, error)
	RestorePerf(data []byte) error
	Observe(pl *core.Platform, codelet string, size, seconds float64) error
}

// PersistOptions tunes the durability layer.
type PersistOptions struct {
	// Fsync syncs the journal file on every committed mutation (the
	// durable default). Disabling trades crash safety of the last few
	// records for latency — the OS still flushes eventually.
	Fsync bool

	// SnapshotEvery compacts after this many journal records; 0 disables
	// automatic compaction (Compact can still be called explicitly).
	SnapshotEvery int

	// Logf receives recovery and degradation notices; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// RecoveryInfo describes what open found and did.
type RecoveryInfo struct {
	BaseSeq         uint64 // journal whose image recovery started from (0 = none)
	Fallbacks       int    // newer journals whose image did not verify
	ReplayedRecords int    // mutation records applied
	TornTail        bool
}

// PersistStats is the atomic counter block behind the pdlserved_wal_*
// metric families.
type PersistStats struct {
	Appends      uint64
	AppendErrors uint64
	Replayed     uint64
	TornTails    uint64
	Snapshots    uint64 // compactions performed by this process
	SkippedRecs  uint64
	JournalBytes int64
	JournalRecs  int
	SnapshotAt   time.Time // when the newest image was written
	ReadOnly     bool
}

// PersistHealth is the /healthz "journal" block.
type PersistHealth struct {
	Mode            string  `json:"mode"` // always "durable"
	ReadOnly        bool    `json:"read_only"`
	Seq             uint64  `json:"seq"`
	JournalRecords  int     `json:"journal_records"`
	JournalBytes    int64   `json:"journal_bytes"`
	SnapshotAgeSecs float64 `json:"snapshot_age_seconds"`
	ReplayedRecords int     `json:"replayed_records"`
	TornTail        bool    `json:"torn_tail_recovered"`
	LastError       string  `json:"last_error,omitempty"`
}

// Persistence binds a Registry (and optionally a PerfState) to a data
// directory. All mutations must flow through LogPut/LogDelete/LogObserve,
// which serialise journal append + in-memory commit so the journal order is
// exactly the commit order.
type Persistence struct {
	dir  string
	reg  *Registry
	perf PerfState
	opts PersistOptions

	mu      sync.Mutex // guards journal, seq, base, compaction
	journal *journal
	seq     uint64 // the newest journal, the one receiving appends
	base    uint64 // the journal whose image the store was last restored from or written to

	readOnly atomic.Bool
	lastErr  atomic.Value // string

	recovery RecoveryInfo

	appends      atomic.Uint64
	appendErrors atomic.Uint64
	snapshots    atomic.Uint64
	skipped      atomic.Uint64
	snapshotAt   atomic.Int64 // unix nanos; 0 = no image yet

	fsyncObserve atomic.Value // func(time.Duration)
}

func journalPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%016d.wal", seq))
}

// journalSeqs returns the sequence numbers of dir's journals, ascending. It
// refuses a data dir written by a pdlserved from before images lived in the
// journal: such a dir holds snapshot files, which this version does not read.
func journalSeqs(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "snapshot-") {
			return nil, fmt.Errorf("registry: %s is a snapshot file from an older pdlserved, "+
				"which this version does not read; load the platforms into a new data dir",
				filepath.Join(dir, name))
		}
		s, ok := strings.CutPrefix(name, "journal-")
		if s, ok2 := strings.CutSuffix(s, ".wal"); ok && ok2 {
			if n, err := strconv.ParseUint(s, 10, 64); err == nil {
				seqs = append(seqs, n)
			}
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// OpenPersistence recovers the store from dir (creating it if needed) and
// returns the persistence handle with the journal open for appending. The
// registry and perf state are restored in place; both should be empty.
//
// Recovery:
//  1. Restore the newest journal whose image verifies (every record whole,
//     every platform re-parses). Journal 0 has no image and always verifies.
//  2. Replay that journal's mutations, then those recorded behind the
//     damaged image of each newer journal, in order.
//  3. A torn tail ends the replay; the active journal is truncated to its
//     verified prefix before appends resume.
//  4. If step 1 fell back, a compaction runs before open returns, so the
//     next restart starts from an image that verifies again.
func OpenPersistence(dir string, reg *Registry, perf PerfState, opts PersistOptions) (*Persistence, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &Persistence{dir: dir, reg: reg, perf: perf, opts: opts}
	p.lastErr.Store("")
	if err := p.recover(); err != nil {
		return nil, err
	}
	if p.journal == nil {
		if err := p.Compact(); err != nil {
			return nil, fmt.Errorf("registry: compaction after a recovery fallback: %w", err)
		}
	}
	return p, nil
}

func (p *Persistence) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// recover implements the open-time steps described on OpenPersistence. It
// leaves p.journal nil when it fell back past a newer journal.
func (p *Persistence) recover() error {
	seqs, err := journalSeqs(p.dir)
	if err != nil {
		return err
	}
	if len(seqs) == 0 {
		seqs = []uint64{0} // a new data dir: journal 0, created below
	}
	// 1. The newest journal whose image verifies. tails[i] is what follows
	// journal i's image; for a newer journal it is nil when even the image
	// head is unreadable, and then nothing behind it can be found.
	tails := make([][]byte, len(seqs))
	var imageLen int64
	base := len(seqs) - 1
	for ; base >= 0; base-- {
		data, err := readJournal(journalPath(p.dir, seqs[base]))
		if err != nil {
			return err
		}
		if tails[base], err = p.restore(seqs[base], data); err == nil {
			imageLen = int64(len(data) - len(tails[base]))
			break
		}
		p.recovery.Fallbacks++
		p.logf("pdlserved: refusing the image of journal seq %d: %v (falling back)", seqs[base], err)
	}
	if base < 0 {
		return fmt.Errorf("registry: no journal in %s begins with an image that verifies", p.dir)
	}

	// 2. Replay the chain, base first.
	var good int64
	var torn bool
	for i := base; i < len(seqs); i++ {
		if i > base && tails[i] == nil {
			p.logf("pdlserved: the image of journal seq %d is cut short or has no readable head; no mutations behind it are replayed", seqs[i])
			break
		}
		var n int
		n, good, torn = replayRecords(tails[i], p.applyMutation)
		p.recovery.ReplayedRecords += n
		if torn {
			p.recovery.TornTail = true
			p.logf("pdlserved: journal seq %d has a torn tail after %d record(s)", seqs[i], n)
			break
		}
	}
	p.seq, p.base = seqs[len(seqs)-1], seqs[base]
	p.recovery.BaseSeq = p.base
	if base < len(seqs)-1 {
		return nil // OpenPersistence compacts into a new journal
	}

	// 3. Append to the base, cut back to its verified prefix.
	size := imageLen + good
	path := journalPath(p.dir, p.seq)
	if torn {
		if err := os.Truncate(path, size); err != nil {
			return fmt.Errorf("registry: truncate torn journal: %w", err)
		}
	}
	j, err := openJournal(path, size, p.opts.Fsync)
	if err != nil {
		return err
	}
	j.records = p.recovery.ReplayedRecords
	j.fsyncObserve = p.observeFsync
	p.journal = j
	return nil
}

// restore loads the image journal seq begins with into the registry and the
// perf state, and returns the journal's mutations behind it (see
// decodeImage).
func (p *Persistence) restore(seq uint64, data []byte) ([]byte, error) {
	if seq == 0 { // journal 0's image is the empty store
		return data, p.reg.restoreState(0, nil)
	}
	img, rest, err := decodeImage(data)
	if err == nil {
		err = p.reg.restoreState(img.Version, img.puts)
	}
	if err == nil && p.perf != nil && img.perf != nil {
		err = p.perf.RestorePerf(img.perf)
	}
	if err == nil {
		p.snapshotAt.Store(img.SavedAt.UnixNano())
	}
	return rest, err
}

// applyMutation re-applies one journaled mutation during replay. Apply
// errors are tolerated: the record is counted, logged and skipped, because
// a record that failed to apply at commit time (e.g. an observation whose
// platform was later deleted mid-history cannot happen, but a skew between
// binary versions can) must not brick the store.
func (p *Persistence) applyMutation(m record) {
	var err error
	switch m.Op {
	case opPut:
		_, _, err = p.reg.Put(m.Put.Name, m.Put.XML)
	case opDelete:
		p.reg.Delete(m.Delete.Name)
	case opObserve:
		if p.perf == nil {
			err = errors.New("no perfmodel state attached")
			break
		}
		e, ok := p.reg.Get(m.Observe.Platform)
		if !ok {
			err = fmt.Errorf("platform %q not in store at this point", m.Observe.Platform)
			break
		}
		err = p.perf.Observe(e.Platform, m.Observe.Codelet, m.Observe.Size, m.Observe.Seconds)
	}
	if err != nil {
		p.skipped.Add(1)
		p.logf("pdlserved: skipping unreplayable journal record (op %d): %v", m.Op, err)
	}
}

// observeFsync forwards fsync durations to the registered observer.
func (p *Persistence) observeFsync(d time.Duration) {
	if fn, ok := p.fsyncObserve.Load().(func(time.Duration)); ok && fn != nil {
		fn(d)
	}
}

// SetFsyncObserver wires a latency observer (the server's fsync histogram).
func (p *Persistence) SetFsyncObserver(fn func(time.Duration)) {
	p.fsyncObserve.Store(fn)
}

// commit appends one journal record and, once it is durable, runs the
// in-memory commit under the same lock — journal order is commit order. A nil
// p is a store without a durability layer: apply runs directly. This is the
// one place that choice is made; Put and the Log* methods inherit it.
func (p *Persistence) commit(op byte, body any, apply func()) error {
	if p == nil {
		apply()
		return nil
	}
	if p.readOnly.Load() {
		return ErrReadOnly
	}
	payload, err := encodePayload(op, body)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.readOnly.Load() {
		return ErrReadOnly
	}
	if p.journal == nil {
		return fmt.Errorf("%w: persistence is closed", ErrReadOnly)
	}
	if err := p.journal.append(payload); err != nil {
		p.appendErrors.Add(1)
		p.degrade(err)
		return fmt.Errorf("%w: %v", ErrReadOnly, err)
	}
	p.appends.Add(1)
	apply()
	if p.opts.SnapshotEvery > 0 && p.journal.records >= p.opts.SnapshotEvery {
		if err := p.compactLocked(); err != nil {
			// Compaction failure is not a commit failure: the journal holds
			// everything. Log and keep going unless the journal itself broke.
			p.logf("pdlserved: automatic compaction failed: %v", err)
		}
	}
	return nil
}

// degrade flips the store to read-only. Caller holds mu (or is in recover).
func (p *Persistence) degrade(err error) {
	p.lastErr.Store(err.Error())
	if p.readOnly.CompareAndSwap(false, true) {
		p.logf("pdlserved: JOURNAL WRITE FAILED, degrading to read-only: %v", err)
	}
}

// Put is reg.Put made durable, the one write path of a platform document
// (the PUT handler and pdlserved's preload): validate, return the stored entry
// unchanged when the canonical document is the one already there — nothing is
// journaled, re-uploads stay free — otherwise journal it, then commit. The
// error is Prepare's or, wrapping ErrReadOnly, the journal's; after the latter
// nothing was committed.
func (p *Persistence) Put(reg *Registry, name string, xmlDoc []byte) (entry *Entry, changed bool, err error) {
	prepared, err := reg.Prepare(name, xmlDoc)
	if err != nil {
		return nil, false, err
	}
	if cur, ok := reg.Get(name); ok && cur.ETag == prepared.ETag() {
		return cur, false, nil
	}
	err = p.LogPut(name, prepared.XML(), func() { entry, changed = reg.CommitPrepared(prepared) })
	return entry, changed, err
}

// LogPut journals a committed platform upload, then runs apply to publish
// it. The canonical XML (not the raw upload) is journaled so replay
// reproduces the identical ETag.
func (p *Persistence) LogPut(name string, canonicalXML []byte, apply func()) error {
	return p.commit(opPut, putRecord{Name: name, XML: canonicalXML}, apply)
}

// LogDelete journals a platform removal, then runs apply.
func (p *Persistence) LogDelete(name string, apply func()) error {
	return p.commit(opDelete, deleteRecord{Name: name}, apply)
}

// LogObserve journals a perfmodel observation, then runs apply.
func (p *Persistence) LogObserve(platform, codelet string, size, seconds float64, apply func()) error {
	return p.commit(opObserve, observeRecord{
		Platform: platform, Codelet: codelet, Size: size, Seconds: seconds,
	}, apply)
}

// image renders the store as the image a compacted journal begins with. The
// caller holds mu, so no commit lands between the registry's part and the
// perf state's.
func (p *Persistence) image(at time.Time) ([]byte, error) {
	version, puts := p.reg.exportState()
	var perf []byte
	if p.perf != nil {
		var err error
		if perf, err = p.perf.SnapshotPerf(); err != nil {
			return nil, fmt.Errorf("registry: image of the perf state: %w", err)
		}
	}
	return encodeImage(imageHead{Version: version, SavedAt: at}, puts, perf)
}

// Compact writes a new journal that begins with an image of the current
// store, switches appends to it, and retires the journals before the previous
// image (one full fallback is always retained).
func (p *Persistence) Compact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compactLocked()
}

func (p *Persistence) compactLocked() error {
	at, seq := time.Now(), p.seq+1
	data, err := p.image(at)
	if err != nil {
		return err
	}
	path := journalPath(p.dir, seq)
	if err := writeJournal(path, data); err != nil {
		return fmt.Errorf("registry: write journal seq %d: %w", seq, err)
	}
	// From here on, new records must land in the new journal: the old one
	// is folded into the image and is replayed only on a fallback.
	j, err := openJournal(path, int64(len(data)), p.opts.Fsync)
	if err != nil {
		p.degrade(err)
		return fmt.Errorf("%w: open journal seq %d: %v", ErrReadOnly, seq, err)
	}
	j.fsyncObserve = p.observeFsync
	if p.journal != nil {
		p.journal.close()
	}
	keep := p.base
	p.journal, p.seq, p.base = j, seq, seq
	p.snapshots.Add(1)
	p.snapshotAt.Store(at.UnixNano())
	p.retire(keep)
	return nil
}

// retire removes the journals before keepFrom. Best-effort: a failed unlink
// only wastes disk.
func (p *Persistence) retire(keepFrom uint64) {
	seqs, _ := journalSeqs(p.dir)
	for _, s := range seqs {
		if s < keepFrom {
			os.Remove(journalPath(p.dir, s))
		}
	}
}

// BundleInfo describes an exported or imported bundle.
type BundleInfo struct {
	StoreVersion uint64
	Platforms    int
}

// WriteBundle exports the store as a bundle: the image a compaction would
// write now, a compacted journal with no mutations after its image. The data
// dir is not modified.
func (p *Persistence) WriteBundle(w io.Writer) (BundleInfo, error) {
	p.mu.Lock()
	data, err := p.image(time.Now())
	info := BundleInfo{StoreVersion: p.reg.Version(), Platforms: p.reg.Len()}
	p.mu.Unlock()
	if err == nil {
		_, err = w.Write(data)
	}
	return info, err
}

// ImportBundle seeds dir, which must be empty (or not yet exist), from a
// bundle: any compacted journal, an exported one or one copied out of a data
// dir. Import never merges. The bundle is verified first — every record
// whole, every platform re-parsed — so a damaged one leaves dir empty.
func ImportBundle(r io.Reader, dir string) (BundleInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return BundleInfo{}, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return BundleInfo{}, err
	}
	if len(ents) > 0 {
		return BundleInfo{}, fmt.Errorf("registry: import target %s is not empty (%d entries)", dir, len(ents))
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return BundleInfo{}, fmt.Errorf("registry: read bundle: %w", err)
	}
	if len(data) > 262 && string(data[257:262]) == "ustar" {
		return BundleInfo{}, errors.New("registry: the bundle is a tar archive from an older pdlserved, which this version does not read")
	}
	img, rest, err := decodeImage(data)
	if err == nil {
		err = New().restoreState(img.Version, img.puts)
	}
	if _, _, torn := replayRecords(rest, func(record) {}); err == nil && torn {
		err = errors.New("records after the image do not decode")
	}
	if err != nil {
		return BundleInfo{}, fmt.Errorf("registry: bundle failed verification: %w", err)
	}
	return BundleInfo{StoreVersion: img.Version, Platforms: len(img.puts)}, writeJournal(journalPath(dir, 1), data)
}

// exportState captures the registry's durable image under the read lock, one
// put per platform in name order: the copy-on-write entry map makes this a
// pointer walk, not a deep copy.
func (r *Registry) exportState() (version uint64, puts []putRecord) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	puts = make([]putRecord, 0, len(r.entries))
	for _, e := range r.entries {
		puts = append(puts, putRecord{Name: e.Name, XML: e.XML, Revision: e.Revision})
	}
	sort.Slice(puts, func(i, j int) bool { return puts[i].Name < puts[j].Name })
	return r.version, puts
}

// restoreState rebuilds the registry from an image: every document is
// re-parsed (reproducing the content-hash ETag and query root) and
// republished with its original revision; the store version is restored
// verbatim so a recovered server reports the same version it crashed at.
// Any unparsable platform fails the whole restore — the caller treats the
// image as damaged and falls back.
func (r *Registry) restoreState(version uint64, puts []putRecord) error {
	next := make(map[string]*Entry, len(puts))
	for _, pr := range puts {
		p, err := r.Prepare(pr.Name, pr.XML)
		if err != nil {
			return fmt.Errorf("restore %q: %w", pr.Name, err)
		}
		next[pr.Name] = &Entry{
			Name:     pr.Name,
			Platform: p.pl,
			XML:      p.canonical,
			ETag:     p.etag,
			Revision: pr.Revision,
			Warnings: p.warnings,
			root:     query.New(p.pl),
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = next
	r.version = version
	return nil
}

// Sync forces the active journal's written records to stable storage,
// regardless of the per-append fsync policy. pdlserved calls it between
// http.Server.Shutdown (after which no new /observe can arrive) and Close,
// so mutations that were acknowledged under Fsync=false — perfmodel
// observations streamed by workers, typically — are on disk before exit
// rather than riding on the page cache through process death.
func (p *Persistence) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.journal == nil {
		return nil
	}
	if err := p.journal.sync(); err != nil {
		p.degrade(err)
		return err
	}
	return nil
}

// Close flushes and closes the journal. The Persistence must not be used
// afterwards.
func (p *Persistence) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.journal == nil {
		return nil
	}
	err := p.journal.close()
	p.journal = nil
	return err
}

// ReadOnly reports whether the store has degraded after a journal failure.
func (p *Persistence) ReadOnly() bool { return p.readOnly.Load() }

// Recovery returns what open found and did.
func (p *Persistence) Recovery() RecoveryInfo { return p.recovery }

// Stats snapshots the durability counters for /metrics.
func (p *Persistence) Stats() PersistStats {
	st := PersistStats{
		Appends:      p.appends.Load(),
		AppendErrors: p.appendErrors.Load(),
		Replayed:     uint64(p.recovery.ReplayedRecords),
		Snapshots:    p.snapshots.Load(),
		SkippedRecs:  p.skipped.Load(),
		ReadOnly:     p.readOnly.Load(),
	}
	if p.recovery.TornTail {
		st.TornTails = 1
	}
	if ns := p.snapshotAt.Load(); ns != 0 {
		st.SnapshotAt = time.Unix(0, ns)
	}
	p.mu.Lock()
	if p.journal != nil {
		st.JournalBytes = p.journal.size
		st.JournalRecs = p.journal.records
	}
	p.mu.Unlock()
	return st
}

// Health renders the /healthz journal block.
func (p *Persistence) Health() PersistHealth {
	st := p.Stats()
	h := PersistHealth{
		Mode:            "durable",
		ReadOnly:        st.ReadOnly,
		JournalRecords:  st.JournalRecs,
		JournalBytes:    st.JournalBytes,
		ReplayedRecords: p.recovery.ReplayedRecords,
		TornTail:        p.recovery.TornTail,
	}
	p.mu.Lock()
	h.Seq = p.seq
	p.mu.Unlock()
	if !st.SnapshotAt.IsZero() {
		h.SnapshotAgeSecs = time.Since(st.SnapshotAt).Seconds()
	}
	if s, ok := p.lastErr.Load().(string); ok && s != "" {
		h.LastError = s
	}
	return h
}

// SimulateJournalFailure closes the journal's file descriptor out from
// under the store, so the next mutation's append (or fsync) fails and the
// store degrades to read-only — a fault-injection hook for recovery drills
// and the degradation tests. The data already in the journal is unharmed.
func (p *Persistence) SimulateJournalFailure() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.journal != nil && p.journal.f != nil {
		p.journal.f.Close()
	}
}

// JournalSize returns the current journal's committed byte length — the
// crash-recovery harness truncates at offsets derived from it.
func (p *Persistence) JournalSize() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.journal == nil {
		return 0
	}
	return p.journal.size
}
