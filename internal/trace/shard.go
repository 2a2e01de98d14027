package trace

// DefaultShardCapacity bounds a shard's buffer when NewShard is called with
// capacity <= 0: 64k events (~8 MB) per worker before the oldest events
// start being discarded.
const DefaultShardCapacity = 1 << 16

// shardChunk is the allocation unit of a shard. Chunks are sealed when full
// and never grown, so the recording path's total allocation is exactly the
// events recorded: no doubling-growth copies while the worker runs. The one
// copy is Flush's, after it.
const shardChunk = 1024

// Shard is a single-producer event buffer owned by one worker goroutine.
// Record is lock-free (an append into the active chunk), so tracing never
// contends on the Trace mutex inside the work-stealing hot path. The owner
// calls Flush — typically once, at worker shutdown — to merge the buffered
// events into the parent Trace in recording order.
//
// A Shard must not be shared between goroutines: one worker records, the
// same worker (or the run's join point, after the worker exited) flushes.
type Shard struct {
	parent   *Trace
	limit    int
	chunks   [][]Event // sealed chunks, oldest first
	cur      []Event   // active chunk, appended in place
	buffered int       // events held in sealed chunks (excludes cur)
	dropped  uint64
}

// NewShard creates a per-worker recording buffer holding up to capacity
// events (DefaultShardCapacity when <= 0). Memory is allocated chunk by
// chunk as events arrive — idle workers never allocate — and past the
// capacity the oldest chunks are discarded whole, a bounded-memory
// guarantee for pathological runs.
func (t *Trace) NewShard(capacity int) *Shard {
	if capacity <= 0 {
		capacity = DefaultShardCapacity
	}
	return &Shard{parent: t, limit: capacity}
}

// Record buffers an event. Owner goroutine only; never waits, never locks,
// never copies previously recorded events. Once the buffered total would
// exceed the shard's capacity, the oldest sealed chunks are dropped (in
// chunk granularity) and counted as dropped.
func (s *Shard) Record(e Event) {
	if len(s.cur) == cap(s.cur) {
		if s.cur != nil {
			s.chunks = append(s.chunks, s.cur)
			s.buffered += len(s.cur)
		}
		n := shardChunk
		if n > s.limit {
			n = s.limit
		}
		for s.buffered+n > s.limit && len(s.chunks) > 0 {
			s.dropped += uint64(len(s.chunks[0]))
			s.buffered -= len(s.chunks[0])
			s.chunks[0] = nil
			s.chunks = s.chunks[1:]
		}
		s.cur = make([]Event, 0, n)
	}
	s.cur = append(s.cur, e)
}

// Len returns the number of buffered (unflushed) events.
func (s *Shard) Len() int { return s.buffered + len(s.cur) }

// Dropped reports how many events this shard discarded before Flush.
func (s *Shard) Dropped() uint64 { return s.dropped }

// Flush appends the buffered events to the parent trace in recording order
// and resets the shard for reuse.
func (s *Shard) Flush() {
	if s.Len() == 0 && s.dropped == 0 {
		return
	}
	p := s.parent
	p.mu.Lock()
	for _, c := range s.chunks {
		p.events = append(p.events, c...)
	}
	p.events = append(p.events, s.cur...)
	p.addDroppedLocked(s.dropped)
	p.enforceLimitLocked()
	p.mu.Unlock()
	s.chunks, s.cur, s.buffered, s.dropped = nil, nil, 0, 0
}
