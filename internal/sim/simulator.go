package sim

import "fmt"

// Simulator owns the virtual clock and the pending-event queue. It is not
// safe for concurrent use: all model code runs inside event callbacks on a
// single goroutine, which is what makes runs deterministic.
type Simulator struct {
	now     Time
	queue   []entry // 4-ary min-heap, see before
	seq     uint64
	rng     *Rand
	running bool
	stopped bool
	fired   uint64

	// The event slab: pages of slots, slots of them in use or free, and
	// 1 + the head of the intrusive free list (0 when it is empty).
	pages []*[pageSize]slot
	slots uint32
	free  uint32

	// cur is the tie key of the event executing at now, or of the last one
	// executed; Passed compares against it.
	cur tieKey
}

// New returns a Simulator whose clock starts at zero and whose random source
// is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: NewRand(seed), cur: tieKey{born: -1}}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently queued (including
// cancelled events not yet discarded).
func (s *Simulator) Pending() int { return len(s.queue) }

// At schedules fn to run at absolute virtual time t and returns a handle
// to the event, which may be cancelled. It panics if t is before the
// current time.
func (s *Simulator) At(t Time, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	return s.schedule(t, s.now, 0, fn)
}

// schedule stores the event in a free slot and queues it under the next
// sequence number.
func (s *Simulator) schedule(t, born Time, key uint32, fn func()) Event {
	i := s.alloc()
	sl := s.slot(i)
	sl.fn, sl.born, sl.key = fn, born, key
	s.push(entry{when: t, seq: s.seq, slot: i})
	s.seq++
	return Event{s: s, slot: i, gen: sl.gen}
}

// AtKey schedules fn at t with an explicit tie-break key: among events at
// t it sorts as if it had been scheduled at instant born, and among those
// by key, then in scheduling order (see tieKey). Key 0 is the key of every
// At event, so AtKey(t, now, 0, fn) is At(t, fn). Periodic events that
// each source schedules under its own positive key may be skipped while
// they would change nothing: a later AtKey with the born the skipped event
// would have had sorts exactly where that event would have been. It
// panics if t is before now or born is after now or t.
func (s *Simulator) AtKey(t, born Time, key uint32, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if born > s.now || born > t {
		panic(fmt.Sprintf("sim: event born at %v after now %v or its time %v", born, s.now, t))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	return s.schedule(t, born, key, fn)
}

// Passed reports whether an event AtKey(t, born, key) scheduled now would
// already have fired: its time is before now, or it is at now and sorts
// before the event executing (or last executed) at now. After RunUntil
// advances the clock past the last event, every key at now counts as
// passed.
func (s *Simulator) Passed(t, born Time, key uint32) bool {
	if t != s.now {
		return t < s.now
	}
	return tieKey{born, key, s.seq}.less(s.cur)
}

// After schedules fn to run d after the current time. A negative d panics.
func (s *Simulator) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event after negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed (false when the queue
// is empty).
func (s *Simulator) Step() bool {
	if _, ok := s.peek(); !ok {
		return false
	}
	e := s.pop()
	sl := s.slot(e.slot)
	fn := sl.fn
	s.now = e.when
	s.cur = tieKey{sl.born, sl.key, e.seq}
	sl.gen++
	s.release(e.slot, sl)
	s.fired++
	fn()
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.running = true
	s.stopped = false
	for !s.stopped && s.Step() {
	}
	s.running = false
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (if it is not already past). Events scheduled beyond the
// deadline remain queued.
func (s *Simulator) RunUntil(deadline Time) {
	s.running = true
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
		// Every event at or before deadline has fired.
		s.cur = tieKey{born: Time(1<<63 - 1), key: ^uint32(0), seq: ^uint64(0)}
	case s.now < deadline:
		// Stopped early: nothing at deadline has fired.
		s.cur = tieKey{born: -1}
	}
	if s.now < deadline {
		s.now = deadline
	}
	s.running = false
}

// Stop makes the innermost Run/RunUntil return after the current event
// completes. It may be called from inside an event callback.
func (s *Simulator) Stop() { s.stopped = true }

// peek discards the cancelled entries at the head of the queue and returns
// the timestamp of the next live event.
func (s *Simulator) peek() (Time, bool) {
	for len(s.queue) > 0 {
		e := s.queue[0]
		if sl := s.slot(e.slot); sl.fn == nil {
			s.pop()
			s.release(e.slot, sl)
			continue
		}
		return e.when, true
	}
	return 0, false
}

// Ticker invokes fn every period until the returned stop function is called.
// The first invocation happens one period from now.
func (s *Simulator) Ticker(period Time, fn func()) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v", period))
	}
	var ev Event
	stopped := false // stop called from inside fn, while ev has already fired
	var tick func()
	tick = func() {
		fn()
		if !stopped {
			ev = s.After(period, tick)
		}
	}
	ev = s.After(period, tick)
	return func() {
		stopped = true
		ev.Cancel()
	}
}
