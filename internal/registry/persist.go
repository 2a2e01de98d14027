// Persistence orchestrates the registry's durability layer: the write-ahead
// journal (wal.go), periodic compacted snapshots (snapshot.go), recovery on
// open, and the read-only degradation the HTTP layer surfaces as
// 503 + Retry-After.
//
// Data-dir layout — files are named by epoch sequence number:
//
//	snapshot-%016d.snap   compacted store image (seq = epoch it begins)
//	journal-%016d.wal     mutations since snapshot of the same seq
//
// A compaction writes snapshot S+1 (containing everything committed so
// far), switches appends to journal S+1, and then retires files older than
// snapshot S — so the directory always holds the current epoch plus one
// full fallback epoch. Recovery loads the newest verifiable snapshot and
// replays every journal with seq >= that snapshot, in order; if the newest
// snapshot is corrupt it falls back to the previous one, whose journal
// still covers the gap.
package registry

import (
	"errors"
	"fmt"
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
)

// ErrReadOnly is returned for mutations after a journal write has failed:
// the in-memory store is still serving reads, but nothing further can be
// made durable, so nothing further is accepted.
var ErrReadOnly = errors.New("registry: persistence is read-only after a journal write failure")

// PerfState is the perfmodel side of durability: the predict.Tuner
// satisfies it. Snapshots embed SnapshotPerf's bytes verbatim; recovery
// hands them back to RestorePerf and replays journaled observations through
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
	SnapshotSeq       uint64 // snapshot epoch recovery started from (0 = none)
	SnapshotLoaded    bool
	SnapshotFallbacks int // corrupt snapshots skipped over
	ReplayedRecords   int // journal records applied
	SkippedRecords    int // journal records that failed to re-apply (logged)
	TornTail          bool
	TruncatedBytes    int64 // bytes discarded from the torn tail
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
	SnapshotAt   time.Time // when the newest snapshot was written
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

	mu           sync.Mutex // guards journal, seq, compaction
	journal      *journal
	seq          uint64 // current epoch (journal/snapshot sequence)
	sinceCompact int    // records appended since the last snapshot

	readOnly atomic.Bool
	lastErr  atomic.Value // string

	recovery RecoveryInfo

	appends      atomic.Uint64
	appendErrors atomic.Uint64
	tornTails    atomic.Uint64
	snapshots    atomic.Uint64
	skipped      atomic.Uint64
	snapshotAt   atomic.Int64 // unix nanos; 0 = no snapshot yet

	fsyncObserve atomic.Value // func(time.Duration)
}

func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%016d.snap", seq))
}

func journalPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%016d.wal", seq))
}

// parseSeq extracts the sequence number from a data-dir file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// OpenPersistence recovers the store from dir (creating it if needed) and
// returns the persistence handle with the journal open for appending. The
// registry and perf state are restored in place; both should be empty.
//
// Recovery state machine:
//  1. Load the newest snapshot that verifies (magic, length, CRC, parse).
//     Corrupt candidates are logged and skipped — fallback to the previous.
//  2. Replay every journal with seq >= the loaded snapshot, ascending.
//  3. A torn tail in a journal ends its replay; the active journal is
//     truncated to the verified prefix before appends resume.
//  4. If step 1 skipped a corrupt snapshot, a fresh compaction runs
//     immediately so the next restart has a verifiable snapshot again.
func OpenPersistence(dir string, reg *Registry, perf PerfState, opts PersistOptions) (*Persistence, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &Persistence{dir: dir, reg: reg, perf: perf, opts: opts}
	p.lastErr.Store("")
	if err := p.recover(); err != nil {
		return nil, err
	}
	if p.recovery.SnapshotFallbacks > 0 {
		// Re-establish a good snapshot right away; failure here is not
		// fatal (the store is consistent), just logged.
		if err := p.Compact(); err != nil {
			p.logf("pdlserved: post-recovery compaction failed: %v", err)
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

// listSeqs returns the sorted sequence numbers of data-dir files matching
// prefix/suffix.
func (p *Persistence) listSeqs(prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if s, ok := parseSeq(e.Name(), prefix, suffix); ok {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// recover implements the open-time state machine described on
// OpenPersistence.
func (p *Persistence) recover() error {
	snaps, err := p.listSeqs("snapshot-", ".snap")
	if err != nil {
		return err
	}
	// 1. Newest verifiable snapshot.
	var base uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err := readSnapshot(snapshotPath(p.dir, snaps[i]))
		if err == nil {
			err = p.reg.restoreState(st.StoreVersion, st.Platforms)
		}
		if err == nil && p.perf != nil && len(st.Perfmodels) > 0 {
			err = p.perf.RestorePerf(st.Perfmodels)
		}
		if err != nil {
			p.recovery.SnapshotFallbacks++
			p.logf("pdlserved: refusing snapshot seq %d: %v (falling back)", snaps[i], err)
			continue
		}
		base = snaps[i]
		p.recovery.SnapshotLoaded = true
		p.recovery.SnapshotSeq = base
		p.snapshotAt.Store(st.SavedAt.UnixNano())
		break
	}

	// 2. Replay journals seq >= base, ascending.
	journals, err := p.listSeqs("journal-", ".wal")
	if err != nil {
		return err
	}
	var lastSeq uint64 = base
	var lastRes replayResult
	for _, seq := range journals {
		if seq < base {
			continue
		}
		res, err := replayJournal(journalPath(p.dir, seq), p.applyMutation)
		if err != nil {
			return fmt.Errorf("registry: replay journal seq %d: %w", seq, err)
		}
		p.recovery.ReplayedRecords += res.Records
		if res.Torn {
			p.recovery.TornTail = true
			p.tornTails.Add(1)
			fi, statErr := os.Stat(journalPath(p.dir, seq))
			if statErr == nil {
				p.recovery.TruncatedBytes += fi.Size() - res.GoodBytes
			}
			p.logf("pdlserved: journal seq %d has a torn tail after %d record(s); truncating to %d bytes",
				seq, res.Records, res.GoodBytes)
		}
		if seq >= lastSeq {
			lastSeq, lastRes = seq, res
		}
	}

	// 3. Open the active journal (highest epoch seen), truncating any torn
	// tail to the verified prefix first.
	if lastRes.Torn {
		if err := os.Truncate(journalPath(p.dir, lastSeq), lastRes.GoodBytes); err != nil {
			return fmt.Errorf("registry: truncate torn journal: %w", err)
		}
	}
	j, err := openJournal(journalPath(p.dir, lastSeq), lastRes.GoodBytes, p.opts.Fsync)
	if err != nil {
		return err
	}
	j.records = lastRes.Records
	j.fsyncObserve = p.observeFsync
	p.journal = j
	p.seq = lastSeq
	p.sinceCompact = lastRes.Records
	return nil
}

// applyMutation re-applies one journaled mutation during replay. Apply
// errors are tolerated: the record is counted, logged and skipped, because
// a record that failed to apply at commit time (e.g. an observation whose
// platform was later deleted mid-history cannot happen, but a skew between
// binary versions can) must not brick the store.
func (p *Persistence) applyMutation(m mutation) error {
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
		p.recovery.SkippedRecords++
		p.skipped.Add(1)
		p.logf("pdlserved: skipping unreplayable journal record (op %d): %v", m.Op, err)
	}
	return nil
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
	payload, err := encodeMutation(op, body)
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
	p.sinceCompact++
	if p.opts.SnapshotEvery > 0 && p.sinceCompact >= p.opts.SnapshotEvery {
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

// Compact writes a fresh snapshot of the current store, switches the
// journal to a new epoch, and retires files older than the previous
// snapshot (one full fallback epoch is always retained).
func (p *Persistence) Compact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compactLocked()
}

func (p *Persistence) compactLocked() error {
	newSeq := p.seq + 1
	version, pls := p.reg.exportState()
	st := snapshotState{
		Seq:          newSeq,
		SavedAt:      time.Now(),
		StoreVersion: version,
		Platforms:    pls,
	}
	if p.perf != nil {
		pm, err := p.perf.SnapshotPerf()
		if err != nil {
			return fmt.Errorf("registry: snapshot perfmodels: %w", err)
		}
		st.Perfmodels = pm
	}
	if err := writeSnapshot(snapshotPath(p.dir, newSeq), st); err != nil {
		return fmt.Errorf("registry: write snapshot seq %d: %w", newSeq, err)
	}
	// From here on, new records must land in the new epoch's journal: the
	// old journal is already folded into the snapshot and will not be
	// replayed on top of it.
	j, err := openJournal(journalPath(p.dir, newSeq), 0, p.opts.Fsync)
	if err != nil {
		p.degrade(err)
		return fmt.Errorf("%w: open journal seq %d: %v", ErrReadOnly, newSeq, err)
	}
	j.fsyncObserve = p.observeFsync
	old := p.journal
	prevSnap := p.seq // previous epoch is the fallback we retain
	p.journal = j
	p.seq = newSeq
	p.sinceCompact = 0
	p.snapshots.Add(1)
	p.snapshotAt.Store(st.SavedAt.UnixNano())
	if old != nil {
		old.close()
	}
	p.retire(prevSnap)
	return nil
}

// retire removes snapshots and journals from epochs before keepFrom.
// Best-effort: a failed unlink only wastes disk.
func (p *Persistence) retire(keepFrom uint64) {
	snaps, _ := p.listSeqs("snapshot-", ".snap")
	for _, s := range snaps {
		if s < keepFrom {
			os.Remove(snapshotPath(p.dir, s))
		}
	}
	journals, _ := p.listSeqs("journal-", ".wal")
	for _, s := range journals {
		if s < keepFrom {
			os.Remove(journalPath(p.dir, s))
		}
	}
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

// Dir returns the data directory.
func (p *Persistence) Dir() string { return p.dir }

// Stats snapshots the durability counters for /metrics.
func (p *Persistence) Stats() PersistStats {
	st := PersistStats{
		Appends:      p.appends.Load(),
		AppendErrors: p.appendErrors.Load(),
		Replayed:     uint64(p.recovery.ReplayedRecords),
		TornTails:    p.tornTails.Load(),
		Snapshots:    p.snapshots.Load(),
		SkippedRecs:  p.skipped.Load(),
		ReadOnly:     p.readOnly.Load(),
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

// ActiveJournalPath returns the file currently receiving appends.
func (p *Persistence) ActiveJournalPath() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return journalPath(p.dir, p.seq)
}
