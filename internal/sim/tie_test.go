package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// TestAtSeqReservedMatchesAt pins that an AtSeq event carrying a number
// reserved at instant r sorts exactly where an At made at r would have,
// even when it is scheduled much later.
func TestAtSeqReservedMatchesAt(t *testing.T) {
	run := func(deferred bool) []string {
		s := New(1)
		var got []string
		mark := func(name string) func() { return func() { got = append(got, name) } }
		const at = 100
		s.At(at, mark("early"))
		s.At(10, func() {
			if !deferred {
				s.At(at, mark("target"))
				s.At(at, mark("late"))
				return
			}
			seq := s.Reserve()
			s.At(at, mark("late"))
			s.At(50, func() { s.AtSeq(at, 10, seq, nil, mark("target")) })
		})
		s.At(20, func() { s.At(at, mark("later")) })
		s.Run()
		return got
	}
	want, got := run(false), run(true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AtSeq order %v, At order %v", got, want)
	}
	if want := []string{"early", "target", "late", "later"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestAtSeqPastBornOrder pins the same-instant rule for an event whose born
// lies in the past: after everything scheduled before that instant, before
// everything scheduled after it, whatever its sequence number.
func TestAtSeqPastBornOrder(t *testing.T) {
	s := New(1)
	var got []string
	mark := func(name string) func() { return func() { got = append(got, name) } }
	s.At(5, func() { s.At(100, mark("born5")) })
	s.At(30, func() { s.At(100, mark("born30")) })
	s.At(60, func() {
		// Fresh number, born at 20: between born5 and born30.
		s.AtSeq(100, 20, s.Reserve(), nil, mark("wake20"))
	})
	s.Run()
	if want := []string{"born5", "wake20", "born30"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestAtSeqValidation pins the panics of AtSeq's contract.
func TestAtSeqValidation(t *testing.T) {
	for name, fn := range map[string]func(s *Simulator){
		"past time":      func(s *Simulator) { s.AtSeq(5, 0, 0, nil, func() {}) },
		"future born":    func(s *Simulator) { s.AtSeq(20, 15, 0, nil, func() {}) },
		"born after t":   func(s *Simulator) { s.AtSeq(12, 13, 0, nil, func() {}) },
		"unreserved seq": func(s *Simulator) { s.AtSeq(20, 10, 1<<40, nil, func() {}) },
		"nil callback":   func(s *Simulator) { s.AtSeq(20, 10, 0, nil, nil) },
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
	var reserved uint64
	s.At(10, func() { reserved = s.Reserve() })
	s.At(40, func() {
		// This event is (40, born 0, seq 1): keys born earlier or with a
		// smaller number at born 0 have fired, later ones have not.
		if !s.Passed(39, 30, 0, nil) || s.Passed(41, 0, 0, nil) {
			t.Error("time comparison wrong")
		}
		if !s.Passed(40, 0, 0, nil) || s.Passed(40, 0, 2, nil) || s.Passed(40, 10, reserved, nil) {
			t.Error("same-instant comparison wrong")
		}
	})
	s.RunUntil(50)
	if !s.Passed(50, 50, ^uint64(0), nil) {
		t.Error("after RunUntil every key at now must count as passed")
	}
	// A RunUntil stopped early still moves the clock to its deadline, but
	// the events queued there have not fired.
	st := New(1)
	st.At(5, st.Stop)
	st.At(30, func() {})
	st.RunUntil(30)
	if st.Passed(30, 0, 1, nil) {
		t.Error("after a stopped RunUntil an unfired key at now counts as passed")
	}
}

// TestBornKeyMatchesSeqOrder is the property behind the three-part key:
// over random schedules made only with At — ties, zero delays, events
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

// TestRankMatchesPollChains is the property behind Rank: chains polling
// every period, rooted by events of random delays at random grid points,
// are replaced by single wakes at a late grid point, each keyed born one
// period earlier with a fresh number and the chain's rank and scheduled in
// random order. The wakes must fire in the order the real polls do.
func TestRankMatchesPollChains(t *testing.T) {
	const period, horizon = 10, 200
	delays := []Time{0, 3, period, 17, 25}
	for seed := int64(1); seed <= 300; seed++ {
		type root struct {
			at, delay Time
		}
		rng := NewRand(seed)
		roots := make([]root, 2+rng.Intn(6))
		for i := range roots {
			d := delays[rng.Intn(len(delays))]
			if d == period {
				d = 0 // a root of exactly one period is the documented blind spot
			}
			roots[i] = root{at: Time(rng.Intn(8)) * period, delay: d}
			if roots[i].at < d {
				roots[i].at += period * 3
			}
		}
		// Reference: every poll is a real event.
		ref := New(1)
		var refOrder []int
		// Parked: roots compute ranks; only the wakes at horizon exist.
		pk := New(1)
		ranks := make([]*Rank, len(roots))
		for i, r := range roots {
			i, r := i, r
			var poll func()
			poll = func() {
				if ref.Now() == horizon {
					refOrder = append(refOrder, i)
					return
				}
				ref.After(period, poll)
			}
			ref.At(r.at-r.delay, func() { ref.After(r.delay, poll) })
			pk.At(r.at-r.delay, func() {
				pk.After(r.delay, func() { ranks[i] = pk.ChainRank(period) })
			})
		}
		ref.Run()
		pk.RunUntil(horizon - period)
		var pkOrder []int
		perm := make([]int, len(roots))
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], i
		}
		for _, i := range perm {
			i := i
			pk.AtSeq(horizon, horizon-period, pk.Reserve(), ranks[i], func() { pkOrder = append(pkOrder, i) })
		}
		pk.Run()
		if !reflect.DeepEqual(pkOrder, refOrder) {
			t.Fatalf("seed %d roots %v: wakes fired %v, polls %v", seed, fmt.Sprint(roots), pkOrder, refOrder)
		}
	}
}
