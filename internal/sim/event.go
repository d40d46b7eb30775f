package sim

// Event is a scheduled callback. Events are created by Simulator.At and
// Simulator.After and may be cancelled before they fire. An Event must not
// be reused after it has fired or been cancelled.
type Event struct {
	when      Time
	born      Time   // instant the event was scheduled at (see eventHeap)
	seq       uint64 // FIFO tie-break among events at the same instant
	fn        func()
	rank      *Rank // poll-chain position, nil for ordinary events
	index     int32 // position in the heap, -1 when not queued
	cancelled bool
}

// When returns the virtual time at which the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

// Cancelled reports whether Cancel has been called on the event.
func (e *Event) Cancelled() bool { return e.cancelled }

// Cancel prevents the event from firing. Cancelling an event that already
// fired or was already cancelled is a no-op. Cancel is O(1); the event is
// lazily discarded when it reaches the head of the queue.
func (e *Event) Cancel() {
	e.cancelled = true
	e.fn = nil
}

// eventHeap is a binary min-heap ordered by (when, born, seq), except that
// two poll-chain events tying on (when, born) compare by Rank.
//
// For events scheduled with At, born is the clock at scheduling time and
// never decreases as seq grows, so the born component changes nothing: the
// order is plain (when, seq), FIFO among same-instant events. It matters
// only for AtSeq events, whose born may lie in the past: such an event
// sorts among same-instant events as if it had been scheduled at born,
// after every event scheduled before that instant and before every event
// scheduled after it.
type eventHeap []*Event

// before is the heap order. Its common case, distinct times, inlines into
// every sift; ties go out of line to tieLess.
func before(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.tieLess(b)
}

// tieLess orders e against a same-instant event o.
//
//go:noinline
func (e *Event) tieLess(o *Event) bool {
	if e.born != o.born {
		return e.born < o.born
	}
	if e.rank != nil && o.rank != nil {
		if c := e.rank.cmp(o.rank); c != 0 {
			return c < 0
		}
	}
	return e.seq < o.seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}

func (h *eventHeap) push(e *Event) {
	e.index = int32(len(*h))
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old)
	top := old[0]
	old.swap(0, n-1)
	old[n-1] = nil
	*h = old[:n-1]
	if n > 1 {
		h.down(0)
	}
	top.index = -1
	return top
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(h[i], h[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && before(h[right], h[left]) {
			least = right
		}
		if !before(h[least], h[i]) {
			return
		}
		h.swap(i, least)
		i = least
	}
}
