package platform

import (
	"testing"

	"repro/internal/sim"
)

// idleWindow runs a platform hosting the RUBiS tiers' guests with no
// traffic through 10 ms of warm-up and then a 4 s window, and returns the
// events fired in the window.
func idleWindow() uint64 {
	p := New(Config{Seed: 1})
	for _, name := range []string{"web", "app", "db"} {
		p.AddGuest(name, 256)
	}
	p.Sim.RunUntil(10 * sim.Millisecond)
	f0 := p.Sim.Fired()
	p.Sim.RunUntil(p.Sim.Now() + 4*sim.Second)
	return p.Sim.Fired() - f0
}

// TestIdlePlatformEventCount guards against idle polling coming back: with
// no traffic the IXP threads stay parked, and what fires is the hypervisor
// and the coordination plane's timers. The count is a pure function of the
// configuration; polling every idle thread would fire 1,280,537.
func TestIdlePlatformEventCount(t *testing.T) {
	const want = 537
	if got := idleWindow(); got != want {
		t.Fatalf("idle platform fired %d events in 4 s, want %d", got, want)
	}
}

// BenchmarkIdlePlatform measures the host cost of 4 simulated seconds of
// an idle platform.
func BenchmarkIdlePlatform(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idleWindow()
	}
}
