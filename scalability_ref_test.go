package repro

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// refScalabilityPoint is the per-message-event model that
// runScalabilityPoint replaced, kept as the reference the send-time model
// is checked against: every message is an event on each hop, and the hub
// reserves its service slot when the message reaches it.
func refScalabilityPoint(cfg ScalabilityConfig, islands int, topo string) ScalabilityPoint {
	s := sim.New(cfg.Seed)
	hop := toSim(cfg.HopLatency)
	hubCost := toSim(cfg.HubCost)
	duration := toSim(cfg.Duration)

	var lat stats.Sample
	var sent, routed uint64

	// deliver records end-to-end latency at the destination island.
	deliver := func(sentAt sim.Time) {
		routed++
		lat.Add((s.Now() - sentAt).Microseconds())
	}

	// In the star topology, a central hub serializes routing: each message
	// occupies it for hubCost before the second hop begins.
	var hubBusy sim.Time
	routeViaHub := func(sentAt sim.Time) {
		start := s.Now()
		if hubBusy > start {
			start = hubBusy
		}
		hubBusy = start + hubCost
		s.At(hubBusy, func() {
			s.After(hop, func() { deliver(sentAt) })
		})
	}

	// Each island emits Poisson coordination traffic to random peers.
	rng := s.Rand().Fork()
	interval := sim.Time(float64(sim.Second) / cfg.RatePerIsland)
	for i := 0; i < islands; i++ {
		var emit func()
		emit = func() {
			if s.Now() >= duration {
				return
			}
			sent++
			at := s.Now()
			switch topo {
			case "star":
				s.After(hop, func() { routeViaHub(at) })
			default: // direct
				s.After(hop, func() { deliver(at) })
			}
			s.After(rng.ExpTime(interval), emit)
		}
		s.After(rng.ExpTime(interval), emit)
	}
	s.RunUntil(duration + toSim(scalabilityDrain)) // drain in-flight messages

	secs := duration.Seconds()
	return ScalabilityPoint{
		Topology:      topo,
		Islands:       islands,
		OfferedPerSec: float64(sent) / secs,
		RoutedPerSec:  float64(routed) / secs,
		MeanLatencyUs: mean(&lat),
		P99LatencyUs:  lat.Percentile(99),
		MaxLatencyUs:  lat.Percentile(100),
	}
}
