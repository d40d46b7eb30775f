package netsim

import (
	"testing"

	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/xen"
)

// TestGateTracksRingFull drives host stacks through random deliveries to a
// bounded handler that rejects a third of its packets (stalling the ring
// head until the retry), to a plain handler and to an unregistered VM,
// with ring-capacity changes up and down, and with interrupt moderation in
// half the runs. After every event the last value pushed to the IXP gate
// must equal RingFull, and no push may repeat the value before it: the
// IXP parks gated threads until the gate opens, so a missed push would
// strand them.
func TestGateTracksRingFull(t *testing.T) {
	var opens, closes int
	for seed := int64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		s := sim.New(seed)
		hv := xen.New(s, xen.Options{NumPCPUs: 1})
		dom0 := hv.CreateDomain("dom0", 256, 1)
		hv.Start()
		cfg := Config{}
		if seed%2 == 0 {
			cfg.IntrPeriod = sim.Time(1+rng.Intn(3)) * sim.Millisecond
		}
		hs := NewHostStack(s, dom0, pcie.NewChannel(s, "host-ixp", pcie.Config{}), cfg)
		gate := false
		hs.ConnectIXPGate(func(full bool) {
			if full == gate {
				t.Fatalf("seed %d at %v: gate pushed %v twice", seed, s.Now(), full)
			}
			gate = full
			if full {
				closes++
			} else {
				opens++
			}
		})
		hs.SetRingCapacity(1 + rng.Intn(8))
		hs.RegisterBounded(1, func(*Packet) bool { return rng.Intn(3) != 0 })
		hs.Register(2, func(*Packet) {})
		var id uint64
		for i := 0; i < 300; i++ {
			at := sim.Time(rng.Intn(400)) * 50 * sim.Microsecond
			if rng.Intn(8) == 0 {
				s.At(at, func() { hs.SetRingCapacity(1 + rng.Intn(12)) })
				continue
			}
			s.At(at, func() {
				id++
				hs.DeliverFromIXP(&Packet{ID: id, Size: 100, DstVM: 1 + rng.Intn(3)})
			})
		}
		for s.Now() < 2*sim.Second && s.Step() {
			if gate != hs.RingFull() {
				t.Fatalf("seed %d at %v: gate %v, RingFull %v (backlog %d, staged %d)",
					seed, s.Now(), gate, hs.RingFull(), hs.RxBacklog(), hs.Staged())
			}
		}
		if hs.RxBacklog()+hs.Staged() != 0 {
			t.Fatalf("seed %d: %d packets left in the ring", seed, hs.RxBacklog()+hs.Staged())
		}
	}
	if opens < 100 || closes != opens {
		t.Fatalf("gate closed %d times and opened %d; want the runs to cycle it often", closes, opens)
	}
}
