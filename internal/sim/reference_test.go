package sim

import "fmt"

// refSim is the event kernel the slot slab and the 4-ary heap replace: one
// heap-allocated refEvent per scheduled callback, in a binary min-heap of
// pointers. It is kept here as the behaviour the kernel must reproduce
// event for event (see FuzzEventQueue).
type refSim struct {
	now     Time
	queue   refHeap
	seq     uint64
	stopped bool

	curBorn Time
	curSeq  uint64
	curRank *Rank
}

func newRefSim() *refSim { return &refSim{curBorn: -1} }

type refEvent struct {
	when      Time
	born      Time
	seq       uint64
	fn        func()
	rank      *Rank
	cancelled bool
}

func (e *refEvent) Cancel() {
	e.cancelled = true
	e.fn = nil
}

// Pending reports whether the event has neither fired nor been cancelled;
// Step and Cancel both clear fn.
func (e *refEvent) Pending() bool { return e.fn != nil }

func (e *refEvent) tieLess(o *refEvent) bool {
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

type refHeap []*refEvent

func refBefore(a, b *refEvent) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.tieLess(b)
}

func (h *refHeap) push(e *refEvent) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *refHeap) pop() *refEvent {
	old := *h
	n := len(old)
	top := old[0]
	old[0], old[n-1] = old[n-1], old[0]
	old[n-1] = nil
	*h = old[:n-1]
	if n > 1 {
		h.down(0)
	}
	return top
}

func (h refHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !refBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h refHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && refBefore(h[right], h[left]) {
			least = right
		}
		if !refBefore(h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

func (s *refSim) Now() Time    { return s.now }
func (s *refSim) Pending() int { return len(s.queue) }
func (s *refSim) Stop()        { s.stopped = true }

func (s *refSim) Reserve() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

func (s *refSim) At(t Time, fn func()) handle {
	if t < s.now {
		panic(fmt.Sprintf("ref: scheduling event at %v before now %v", t, s.now))
	}
	e := &refEvent{when: t, born: s.now, seq: s.Reserve(), fn: fn}
	s.queue.push(e)
	return e
}

func (s *refSim) After(d Time, fn func()) handle { return s.At(s.now+d, fn) }

func (s *refSim) AtSeq(t, born Time, seq uint64, r *Rank, fn func()) handle {
	if t < s.now || born > s.now || born > t || seq >= s.seq {
		panic(fmt.Sprintf("ref: bad AtSeq(%v, %v, %d) at %v", t, born, seq, s.now))
	}
	e := &refEvent{when: t, born: born, seq: seq, fn: fn, rank: r}
	s.queue.push(e)
	return e
}

func (s *refSim) Passed(t, born Time, seq uint64, r *Rank) bool {
	if t != s.now {
		return t < s.now
	}
	e := refEvent{born: born, seq: seq, rank: r}
	return e.tieLess(&refEvent{born: s.curBorn, seq: s.curSeq, rank: s.curRank})
}

func (s *refSim) ChainRank(period Time) *Rank {
	if s.curRank != nil && s.now-s.curBorn == period {
		return s.curRank
	}
	return RootRank(s.now, s.curBorn, s.curSeq, s.curRank, period)
}

func (s *refSim) Step() bool {
	for len(s.queue) > 0 {
		e := s.queue.pop()
		if e.cancelled {
			continue
		}
		s.now = e.when
		s.curBorn, s.curSeq, s.curRank = e.born, e.seq, e.rank
		fn := e.fn
		e.fn = nil
		fn()
		return true
	}
	return false
}

func (s *refSim) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.Step()
	}
	switch {
	case !s.stopped:
		s.curBorn, s.curSeq, s.curRank = Time(1<<63-1), ^uint64(0), nil
	case s.now < deadline:
		s.curBorn, s.curSeq, s.curRank = -1, 0, nil
	}
	if s.now < deadline {
		s.now = deadline
	}
}

func (s *refSim) peek() (Time, bool) {
	for len(s.queue) > 0 {
		if s.queue[0].cancelled {
			s.queue.pop()
			continue
		}
		return s.queue[0].when, true
	}
	return 0, false
}
