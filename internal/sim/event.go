package sim

// Event is a handle to a scheduled callback, returned by Simulator.At,
// After and AtSeq. It is a small value: copy it freely. The zero Event
// refers to nothing.
//
// A handle names a slot of the simulator's event slab and the generation
// the slot had when the event was scheduled. Firing or cancelling the event
// bumps the slot's generation, so every copy of the handle goes stale at
// once, and stays stale after the slot is reused for a later event: Cancel
// and Pending on a zero, fired, cancelled or stale handle never touch the
// slot's new occupant. (The generation is 32 bits: a stale handle could
// alias only after 2^32 more events in its slot, far more than any trial
// fires in all.)
type Event struct {
	s    *Simulator
	slot uint32
	gen  uint32
}

// Pending reports whether the event is still scheduled: it has neither
// fired nor been cancelled.
func (e Event) Pending() bool {
	return e.s != nil && e.s.slot(e.slot).gen == e.gen
}

// Cancel prevents the event from firing. Cancelling an event that is not
// pending is a no-op. Cancel is O(1); the queue entry is discarded lazily
// when it reaches the head of the queue.
func (e Event) Cancel() {
	if !e.Pending() {
		return
	}
	sl := e.s.slot(e.slot)
	sl.gen++
	sl.fn = nil
}

// slot is one event's storage in the slab. Cancel clears fn, which marks
// the slot cancelled; the slot keeps its key (born and rank) until its
// queue entry is popped, because the entry still sorts by it.
type slot struct {
	fn   func()
	rank *Rank // poll-chain position, nil for ordinary events
	born Time  // instant the event was scheduled at (see tieKey)
	gen  uint32
	next uint32 // 1 + the next free slot, while on the free list
}

// The slab is a list of fixed-size pages, so a slot never moves and a
// growing slab copies page pointers, not events.
const (
	pageShift = 10
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

func (s *Simulator) slot(i uint32) *slot {
	return &s.pages[i>>pageShift][i&pageMask]
}

// alloc returns a free slot, from the free list or a fresh page.
func (s *Simulator) alloc() uint32 {
	if s.free != 0 {
		i := s.free - 1
		s.free = s.slot(i).next
		return i
	}
	if s.slots&pageMask == 0 {
		s.pages = append(s.pages, new([pageSize]slot))
	}
	i := s.slots
	s.slots++
	return i
}

// release puts slot i, whose queue entry has been popped, on the free list.
func (s *Simulator) release(i uint32, sl *slot) {
	sl.fn, sl.rank = nil, nil
	sl.next = s.free
	s.free = i + 1
}

// entry is one queued event: its time and sequence number, and the slot
// holding the rest of its key. Entries hold no pointers, so the garbage
// collector never scans the queue.
type entry struct {
	when Time
	seq  uint64
	slot uint32
}

// tieKey orders events at the same instant: by born, then, between two
// poll-chain events, by Rank, then by seq.
//
// For events scheduled with At, born is the clock at scheduling time and
// never decreases as seq grows, so the born component changes nothing: the
// order is plain (when, seq), FIFO among same-instant events. It matters
// only for AtSeq events, whose born may lie in the past: such an event
// sorts among same-instant events as if it had been scheduled at born,
// after every event scheduled before that instant and before every event
// scheduled after it.
type tieKey struct {
	born Time
	seq  uint64
	rank *Rank
}

func (k tieKey) less(o tieKey) bool {
	if k.born != o.born {
		return k.born < o.born
	}
	if k.rank != nil && o.rank != nil {
		if c := k.rank.cmp(o.rank); c != 0 {
			return c < 0
		}
	}
	return k.seq < o.seq
}

// The queue is a 4-ary min-heap of entries: half the depth of a binary
// heap, and a node's four children share a cache line or two.
//
// Any heap pops a strict total order in sorted order, whatever its arity,
// so the arity cannot change which event fires next. The one place the
// order is not total is the tie a Rank cannot order (see Rank): an event
// outside every chain that ties on (when, born) with chain events compares
// with them by seq while they compare with each other by Rank, and with an
// intransitive order the pop sequence depends on the heap's shape.
const arity = 4

// before is the heap order. Its common case, distinct times, inlines into
// every sift; ties go out of line to tieLess.
func (s *Simulator) before(a, b entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return s.tieLess(a, b)
}

//go:noinline
func (s *Simulator) tieLess(a, b entry) bool {
	sa, sb := s.slot(a.slot), s.slot(b.slot)
	return tieKey{sa.born, a.seq, sa.rank}.less(tieKey{sb.born, b.seq, sb.rank})
}

func (s *Simulator) push(e entry) {
	s.queue = append(s.queue, e)
	h := s.queue
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / arity
		if !s.before(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

func (s *Simulator) pop() entry {
	h := s.queue
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	s.queue = h
	if n == 0 {
		return top
	}
	// Sift the last entry down from the root's hole.
	i := 0
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		least := c
		end := c + arity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s.before(h[j], h[least]) {
				least = j
			}
		}
		if !s.before(h[least], last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
	return top
}
