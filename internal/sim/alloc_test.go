package sim

import "testing"

// TestStepZeroAlloc pins the dispatch contract the hotalloc analyzer
// enforces on the Step/Run/RunUntil roots: executing an already-scheduled
// event allocates nothing — the heap pop moves entries in place and the
// event's slot goes back on the free list.
func TestStepZeroAlloc(t *testing.T) {
	s := New(1)
	const runs = 512
	fn := func() {}
	for i := 0; i < runs+2; i++ {
		s.After(Time(i), fn)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if !s.Step() {
			t.Fatal("queue drained before the measured runs finished")
		}
	})
	if allocs != 0 {
		t.Fatalf("Step allocated %.2f times per event; dispatch must stay allocation-free", allocs)
	}
}

// TestScheduleZeroAlloc pins the scheduling half: once the slab and the
// queue have grown to a steady depth, scheduling reuses freed slots and
// queue capacity and allocates nothing. It covers a self-rescheduling
// component (After then Step) and a held handle cancelled and re-armed on
// every event, the way the Xen scheduler's slice timer is.
func TestScheduleZeroAlloc(t *testing.T) {
	fn := func() {}
	for name, setup := range map[string]func(s *Simulator) func(){
		"after-step": func(s *Simulator) func() {
			return func() {
				s.After(Time(1+s.Fired()%7), fn)
				s.Step()
			}
		},
		"cancel-rearm": func(s *Simulator) func() {
			var slice Event
			return func() {
				slice.Cancel()
				slice = s.After(30, fn)
				s.After(1, fn)
				s.Step()
			}
		},
	} {
		s := New(1)
		for i := 0; i < 64; i++ {
			s.After(Time(i), fn)
		}
		round := setup(s)
		for i := 0; i < 1000; i++ {
			round()
		}
		if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
			t.Errorf("%s: %.2f allocations per event after warm-up, want 0", name, allocs)
		}
	}
}
