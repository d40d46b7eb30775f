package sim

// Event is a handle to a scheduled callback, returned by Simulator.At,
// After and AtKey. It is a small value: copy it freely. The zero Event
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
// the slot cancelled; the slot keeps its born and key until its queue
// entry is popped, because the entry still sorts by them.
type slot struct {
	fn   func()
	born Time // instant the event counts as scheduled at (see tieKey)
	gen  uint32
	next uint32 // 1 + the next free slot, while on the free list
	key  uint32 // tie key, 0 for ordinary events (see tieKey)
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
	sl.fn = nil
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

// tieKey orders events at the same instant, lexicographically: by born,
// then key, then seq.
//
// For events scheduled with At, born is the clock at scheduling time and
// never decreases as seq grows, and key is 0, so the order is plain
// (when, seq): FIFO among same-instant events. born and key matter only
// for AtKey events. An event whose born lies in the past sorts among
// same-instant events as if it had been scheduled at born: after every
// event scheduled before that instant and before every event scheduled
// after it. Among events born at the same instant, a positive key sorts
// after the ordinary events and before larger keys, whatever the order
// the events were scheduled in; that is what makes the order of
// same-instant polls a function of who polls, not of the run's history.
type tieKey struct {
	born Time
	key  uint32
	seq  uint64
}

func (k tieKey) less(o tieKey) bool {
	if k.born != o.born {
		return k.born < o.born
	}
	if k.key != o.key {
		return k.key < o.key
	}
	return k.seq < o.seq
}

// The queue is a 4-ary min-heap of entries: half the depth of a binary
// heap, and a node's four children share a cache line or two. The order
// is a strict total order, so the heap pops it in sorted order whatever
// its arity.
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
	return tieKey{sa.born, sa.key, a.seq}.less(tieKey{sb.born, sb.key, b.seq})
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
