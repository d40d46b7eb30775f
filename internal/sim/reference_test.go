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
	curKey  uint32
	curSeq  uint64
}

func newRefSim() *refSim { return &refSim{curBorn: -1} }

type refEvent struct {
	when      Time
	born      Time
	key       uint32
	seq       uint64
	fn        func()
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
	if e.key != o.key {
		return e.key < o.key
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

func (s *refSim) At(t Time, fn func()) handle {
	if t < s.now {
		panic(fmt.Sprintf("ref: scheduling event at %v before now %v", t, s.now))
	}
	return s.push(t, s.now, 0, fn)
}

func (s *refSim) push(t, born Time, key uint32, fn func()) handle {
	e := &refEvent{when: t, born: born, key: key, seq: s.seq, fn: fn}
	s.seq++
	s.queue.push(e)
	return e
}

func (s *refSim) After(d Time, fn func()) handle { return s.At(s.now+d, fn) }

func (s *refSim) AtKey(t, born Time, key uint32, fn func()) handle {
	if t < s.now || born > s.now || born > t {
		panic(fmt.Sprintf("ref: bad AtKey(%v, %v, %d) at %v", t, born, key, s.now))
	}
	return s.push(t, born, key, fn)
}

func (s *refSim) Passed(t, born Time, key uint32) bool {
	if t != s.now {
		return t < s.now
	}
	e := refEvent{born: born, key: key, seq: s.seq}
	return e.tieLess(&refEvent{born: s.curBorn, key: s.curKey, seq: s.curSeq})
}

func (s *refSim) Step() bool {
	for len(s.queue) > 0 {
		e := s.queue.pop()
		if e.cancelled {
			continue
		}
		s.now = e.when
		s.curBorn, s.curKey, s.curSeq = e.born, e.key, e.seq
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
		s.curBorn, s.curKey, s.curSeq = Time(1<<63-1), ^uint32(0), ^uint64(0)
	case s.now < deadline:
		s.curBorn, s.curKey, s.curSeq = -1, 0, 0
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
