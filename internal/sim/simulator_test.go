package sim

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e9 {
		t.Fatalf("Second = %d, want 1e9", Second)
	}
	if Millisecond*1000 != Second {
		t.Fatalf("1000ms != 1s")
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %v, want 2", got)
	}
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Fatalf("Milliseconds() = %v, want 1.5", got)
	}
	if got := (3 * Millisecond).Microseconds(); got != 3000 {
		t.Fatalf("Microseconds() = %v, want 3000", got)
	}
	if got := FromDuration(time.Second); got != Second {
		t.Fatalf("FromDuration(1s) = %v", got)
	}
	if got := Second.Duration(); got != time.Second {
		t.Fatalf("Duration() = %v", got)
	}
}

func TestTimeScale(t *testing.T) {
	if got := (10 * Millisecond).Scale(0.5); got != 5*Millisecond {
		t.Fatalf("Scale(0.5) = %v", got)
	}
	if got := Time(3).Scale(1.0 / 3.0); got != 1 {
		t.Fatalf("Scale rounding = %v, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative scale did not panic")
		}
	}()
	Time(1).Scale(-1)
}

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", s.Now())
	}
}

func TestEventFIFOAtSameInstant(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", order)
		}
	}
}

func TestEventCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(10, func() { fired = true })
	if !e.Pending() {
		t.Fatal("Pending() = false before Cancel")
	}
	e.Cancel()
	if e.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel is a no-op.
	e.Cancel()
}

func TestSchedulingInsideEvent(t *testing.T) {
	s := New(1)
	var times []Time
	s.At(10, func() {
		times = append(times, s.Now())
		s.After(5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1) did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	s.At(1, nil)
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, tt := range []Time{10, 20, 30, 40} {
		tt := tt
		s.At(tt, func() { fired = append(fired, tt) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 10 and 20", fired)
	}
	if s.Now() != 25 {
		t.Fatalf("Now() = %v, want 25", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired = %v after second RunUntil", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New(1)
	s.RunUntil(50)
	if s.Now() != 50 {
		t.Fatalf("Now() = %v, want 50 with empty queue", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	for i := Time(1); i <= 10; i++ {
		s.At(i, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	// Remaining events are still pending and can be resumed.
	s.Run()
	if count != 10 {
		t.Fatalf("count = %d after resume, want 10", count)
	}
}

func TestStep(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Fatal("Step() on empty queue returned true")
	}
	s.At(5, func() {})
	if !s.Step() {
		t.Fatal("Step() returned false with pending event")
	}
	if s.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", s.Fired())
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var ticks []Time
	stop := s.Ticker(10, func() { ticks = append(ticks, s.Now()) })
	s.At(35, func() { stop() })
	s.Run()
	want := []Time{10, 20, 30}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New(1)
	count := 0
	var stop func()
	stop = s.Ticker(10, func() {
		count++
		if count == 2 {
			stop()
		}
	})
	s.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Ticker(0) did not panic")
		}
	}()
	s.Ticker(0, func() {})
}

func TestHeapManyEvents(t *testing.T) {
	s := New(42)
	const n = 5000
	var last Time = -1
	monotonic := true
	for i := 0; i < n; i++ {
		at := Time(s.Rand().Intn(100000))
		s.At(at, func() {
			if s.Now() < last {
				monotonic = false
			}
			last = s.Now()
		})
	}
	s.Run()
	if !monotonic {
		t.Fatal("event timestamps not monotonically non-decreasing")
	}
	if s.Fired() != n {
		t.Fatalf("Fired() = %d, want %d", s.Fired(), n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(7)
		var out []Time
		var step func()
		step = func() {
			out = append(out, s.Now())
			if len(out) < 100 {
				s.After(s.Rand().ExpTime(Millisecond), step)
			}
		}
		s.After(0, step)
		s.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCancelledEventsDiscardedFromPeek(t *testing.T) {
	s := New(1)
	e1 := s.At(10, func() {})
	fired := false
	s.At(20, func() { fired = true })
	e1.Cancel()
	s.RunUntil(15)
	if fired {
		t.Fatal("event at 20 fired before its time")
	}
	s.RunUntil(25)
	if !fired {
		t.Fatal("event at 20 did not fire")
	}
}

// TestAtKeyPastBornOrder pins the same-instant rule for an event whose born
// lies in the past: after everything scheduled before that instant, before
// everything scheduled after it, and among the events born then after the
// ordinary ones and by key, whatever the order of scheduling.
func TestAtKeyPastBornOrder(t *testing.T) {
	s := New(1)
	var got []string
	mark := func(name string) func() { return func() { got = append(got, name) } }
	s.At(5, func() { s.At(100, mark("born5")) })
	s.At(20, func() { s.At(100, mark("born20")) })
	s.At(30, func() { s.At(100, mark("born30")) })
	s.At(60, func() {
		s.AtKey(100, 20, 2, mark("key2"))
		s.AtKey(100, 20, 1, mark("key1"))
		s.AtKey(100, 20, 0, mark("key0"))
		s.AtKey(100, 10, 7, mark("born10"))
	})
	s.Run()
	if want := []string{"born5", "born10", "born20", "key0", "key1", "key2", "born30"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestAtKeyValidation pins the panics of AtKey's contract.
func TestAtKeyValidation(t *testing.T) {
	for name, fn := range map[string]func(s *Simulator){
		"past time":    func(s *Simulator) { s.AtKey(5, 0, 0, func() {}) },
		"future born":  func(s *Simulator) { s.AtKey(20, 15, 1, func() {}) },
		"born after t": func(s *Simulator) { s.AtKey(12, 13, 1, func() {}) },
		"nil callback": func(s *Simulator) { s.AtKey(20, 10, 1, nil) },
	} {
		s := New(1)
		s.At(0, func() {})
		s.RunUntil(10)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn(s)
		}()
	}
}

// TestPassed pins Passed against the event executing now and after
// RunUntil has advanced the clock.
func TestPassed(t *testing.T) {
	s := New(1)
	s.At(10, func() { s.AtKey(40, 10, 2, func() {}) })
	s.At(40, func() {
		// This event is (40, born 0, key 0): keys born earlier have fired,
		// keys born later or keyed above 0 at born 0 have not.
		if !s.Passed(39, 30, 9) || s.Passed(41, 0, 0) {
			t.Error("time comparison wrong")
		}
		if !s.Passed(40, -1, 9) || s.Passed(40, 0, 0) || s.Passed(40, 0, 1) || s.Passed(40, 10, 0) {
			t.Error("same-instant comparison wrong")
		}
	})
	s.At(40, func() {})
	for i := 0; i < 4; i++ {
		s.Step()
	}
	// The keyed event (40, born 10, key 2) runs last at 40.
	if !s.Passed(40, 0, 0) || !s.Passed(40, 10, 1) || s.Passed(40, 10, 3) {
		t.Error("comparison against a keyed event wrong")
	}
	s.RunUntil(50)
	if !s.Passed(50, 50, ^uint32(0)) {
		t.Error("after RunUntil every key at now must count as passed")
	}
	// A RunUntil stopped early still moves the clock to its deadline, but
	// the events queued there have not fired.
	st := New(1)
	st.At(5, st.Stop)
	st.At(30, func() {})
	st.RunUntil(30)
	if st.Passed(30, 0, 0) {
		t.Error("after a stopped RunUntil an unfired key at now counts as passed")
	}
}

// TestBornKeyMatchesSeqOrder is the property behind the tie key: over
// random schedules made only with At — ties, zero delays, events
// scheduling events — the heap fires events exactly in (when, seq) order.
func TestBornKeyMatchesSeqOrder(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		s := New(seed)
		rng := NewRand(seed)
		type rec struct {
			when Time
			seq  int
		}
		var fired []rec
		n := 0
		var spawn func(depth int)
		spawn = func(depth int) {
			seq := n
			n++
			d := Time(rng.Intn(4)) * 10 // coarse delays force ties
			s.After(d, func() {
				fired = append(fired, rec{s.Now(), seq})
				if depth < 4 {
					for k := rng.Intn(3); k > 0; k-- {
						spawn(depth + 1)
					}
				}
			})
		}
		for i := 0; i < 5; i++ {
			spawn(0)
		}
		s.Run()
		want := append([]rec(nil), fired...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].when != want[j].when {
				return want[i].when < want[j].when
			}
			return want[i].seq < want[j].seq
		})
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("seed %d: fired %v, want (when, seq) order %v", seed, fired, want)
		}
	}
}
