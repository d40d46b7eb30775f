package platform

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// backpressuredWindow runs a platform whose one guest rejects every packet
// at its bounded handler while a 1 KB packet arrives for it each
// millisecond. The 128-packet host ring fills within the 200 ms warm-up and
// stays full, so the guest's flow threads are gated throughout the 4 s
// window that follows; the function returns the events fired in it.
func backpressuredWindow() uint64 {
	p := New(Config{Seed: 1})
	vm := p.AddGuest("slow", 256)
	p.Host.SetRingCapacity(128)
	p.Host.RegisterBounded(vm.ID(), func(*netsim.Packet) bool { return false })
	var id uint64
	p.Sim.Ticker(sim.Millisecond, func() {
		id++
		p.IXP.Receive(&netsim.Packet{ID: id, Size: 1024, DstVM: vm.ID(), SrcVM: -1, Created: p.Sim.Now()})
	})
	p.Sim.RunUntil(200 * sim.Millisecond)
	f0 := p.Sim.Fired()
	p.Sim.RunUntil(p.Sim.Now() + 4*sim.Second)
	return p.Sim.Fired() - f0
}

// TestBackpressuredPlatformEventCount guards against gated polling coming
// back: with the host ring held full, the guest's flow threads stay parked
// on the gate, and what fires is the traffic, the classifier, the host's
// retries of the stalled ring head, the hypervisor and the coordination
// plane's timers. The count is a pure function of the configuration;
// polling the gate every interval would fire 223,794.
func TestBackpressuredPlatformEventCount(t *testing.T) {
	const want = 63794
	if got := backpressuredWindow(); got != want {
		t.Fatalf("backpressured platform fired %d events in 4 s, want %d", got, want)
	}
}

// BenchmarkBackpressuredPlatform measures the host cost of 4 simulated
// seconds of a platform held in backpressure.
func BenchmarkBackpressuredPlatform(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		backpressuredWindow()
	}
}
