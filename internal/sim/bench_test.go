package sim

import "testing"

// BenchmarkSimDispatch measures the dispatch half of the event loop alone:
// events are pre-scheduled outside the timed region, so allocs/op isolates
// Step and must be 0 (the number TestStepZeroAlloc pins as a hard test).
func BenchmarkSimDispatch(b *testing.B) {
	s := New(1)
	fn := func() {}
	for i := 0; i < b.N; i++ {
		s.After(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSimScheduleDispatch measures one full schedule+dispatch cycle —
// the steady-state cost of a self-rescheduling component such as a ticker.
// Each event reuses the slot the previous one freed, so allocs/op is 0
// (TestScheduleZeroAlloc).
func BenchmarkSimScheduleDispatch(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(1, fn)
		s.Step()
	}
}

// BenchmarkSimDeepHeap measures After plus Step with 131072 events
// pending, the backlog the coordscale star hub builds at 256 islands.
// Delays are uniform over 1-1000 µs, so every event sifts through the
// whole depth of the queue.
func BenchmarkSimDeepHeap(b *testing.B) {
	const pending = 1 << 17
	s := New(1)
	rng := NewRand(1)
	delays := make([]Time, 4096)
	for i := range delays {
		delays[i] = Time(1+rng.Intn(1000)) * Microsecond
	}
	fn := func() {}
	for i := 0; i < pending; i++ {
		s.After(delays[i%len(delays)], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(delays[i%len(delays)], fn)
		s.Step()
	}
}

// BenchmarkSimCancelRearm measures the Xen slice-timer pattern: a held
// handle cancelled and re-armed on every event, with another event fired
// in between. Cancelled entries stay queued until their time comes, so the
// queue carries a standing backlog of dead entries.
func BenchmarkSimCancelRearm(b *testing.B) {
	s := New(1)
	fn := func() {}
	var slice Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		slice.Cancel()
		slice = s.After(30*Millisecond, fn)
		s.After(Microsecond, fn)
		s.Step()
	}
}
