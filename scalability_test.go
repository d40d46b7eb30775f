package repro

import (
	"math"
	"strings"
	"testing"
	"time"
)

// samePoint reports the first field in which two points differ, comparing
// floats bit for bit, or "" when they are identical.
func samePoint(got, want ScalabilityPoint) string {
	if got.Topology != want.Topology || got.Islands != want.Islands || got.Reps != want.Reps {
		return "topology, islands or reps"
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"OfferedPerSec", got.OfferedPerSec, want.OfferedPerSec},
		{"RoutedPerSec", got.RoutedPerSec, want.RoutedPerSec},
		{"MeanLatencyUs", got.MeanLatencyUs, want.MeanLatencyUs},
		{"P99LatencyUs", got.P99LatencyUs, want.P99LatencyUs},
		{"MaxLatencyUs", got.MaxLatencyUs, want.MaxLatencyUs},
		{"MeanCI95Us", got.MeanCI95Us, want.MeanCI95Us},
		{"P99CI95Us", got.P99CI95Us, want.P99CI95Us},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return f.name
		}
	}
	return ""
}

// checkAgainstReference runs one point of cfg with the send-time model and
// with the per-message-event reference and fails on any difference.
func checkAgainstReference(t *testing.T, cfg ScalabilityConfig, islands int, topo string) {
	t.Helper()
	got := runScalabilityPoint(cfg, islands, topo)
	want := refScalabilityPoint(cfg, islands, topo)
	if f := samePoint(got, want); f != "" {
		t.Errorf("seed %d %s/%d rate %g hop %v hub %v duration %v: %s differs\n got  %+v\n want %+v",
			cfg.Seed, topo, islands, cfg.RatePerIsland, cfg.HopLatency, cfg.HubCost, cfg.Duration, f, got, want)
	}
}

// TestScalabilityMatchesReference checks the send-time model against the
// per-message-event reference, field by field and bit for bit: the whole
// default table, then short configs built to reach the orderings an
// event per message would settle by tie-break.
func TestScalabilityMatchesReference(t *testing.T) {
	def := ScalabilityConfig{Seed: 1}
	def.applyDefaults()
	for _, n := range def.Islands {
		for _, topo := range []string{"star", "direct"} {
			checkAgainstReference(t, def, n, topo)
		}
	}

	cases := []struct {
		name    string
		islands int
		cfg     ScalabilityConfig
	}{
		// A 5ns mean interval truncates many draws to 0: an island sends
		// several messages in one nanosecond, and islands share instants.
		{"same-instant sends", 16, ScalabilityConfig{Seed: 2, RatePerIsland: 2e8, Duration: 20 * time.Microsecond}},
		{"hub slower than a hop", 64, ScalabilityConfig{Seed: 3, RatePerIsland: 1000, HopLatency: 40 * time.Microsecond, HubCost: 300 * time.Microsecond, Duration: time.Second}},
		{"hop a multiple of the hub cost", 128, ScalabilityConfig{Seed: 4, RatePerIsland: 500, HopLatency: 100 * time.Microsecond, HubCost: 25 * time.Microsecond, Duration: time.Second}},
		{"hop equal to the hub cost", 32, ScalabilityConfig{Seed: 5, RatePerIsland: 3e4, HopLatency: 30 * time.Microsecond, HubCost: 30 * time.Microsecond, Duration: 50 * time.Millisecond}},
		// A 1ns hub saturated from the first arrival hands out every
		// nanosecond in turn, and two 5s hops put those completions across
		// the drain deadline, so one message lands exactly on it.
		{"star lands on the deadline", 64, ScalabilityConfig{Seed: 6, RatePerIsland: 1e8, HopLatency: 5 * time.Second, HubCost: time.Nanosecond, Duration: time.Microsecond}},
		// Sends fill every nanosecond of the window, and the hop reaches
		// the deadline from its middle.
		{"direct lands on the deadline", 16, ScalabilityConfig{Seed: 7, RatePerIsland: 5e8, HopLatency: 10*time.Second + 500*time.Nanosecond, Duration: time.Microsecond}},
		{"hub busy past the deadline", 64, ScalabilityConfig{Seed: 8, RatePerIsland: 100, HubCost: time.Second, Duration: time.Second}},
		{"sub-second window", 8, ScalabilityConfig{Seed: 9, Duration: 3 * time.Millisecond}},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.applyDefaults()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, topo := range []string{"star", "direct"} {
			checkAgainstReference(t, cfg, tc.islands, topo)
		}
	}
}

// FuzzScalabilityPoint checks the send-time model against the reference on
// arbitrary configs. Inputs are folded into what Validate accepts, with
// the message count kept small enough for the reference to run quickly.
func FuzzScalabilityPoint(f *testing.F) {
	f.Add(int64(1), uint8(7), 200.0, int64(150*time.Microsecond), int64(50*time.Microsecond), int64(time.Second))
	f.Add(int64(2), uint8(63), 1e8, int64(5*time.Second), int64(1), int64(time.Microsecond))
	f.Add(int64(3), uint8(15), 5e8, int64(10*time.Second+500), int64(time.Microsecond), int64(time.Microsecond))
	f.Add(int64(4), uint8(31), 2e4, int64(30*time.Microsecond), int64(30*time.Microsecond), int64(20*time.Millisecond))
	f.Fuzz(func(t *testing.T, seed int64, islands uint8, rate float64, hop, hub, dur int64) {
		const maxMessages = 20000
		n := int(islands)%64 + 1
		clamp := func(v, hi int64) time.Duration {
			if v < 0 {
				v = -(v + 1)
			}
			return time.Duration(v%hi + 1)
		}
		cfg := ScalabilityConfig{
			Seed:       seed,
			HopLatency: clamp(hop, int64(12*time.Second)),
			HubCost:    clamp(hub, int64(time.Second)),
			Duration:   clamp(dur, int64(2*time.Second)),
		}
		// The rate ends up between 1/s and the budget, and at most 1e9/s.
		hi := math.Min(1e9, maxMessages/(float64(n)*cfg.Duration.Seconds()))
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			rate = 1
		}
		cfg.RatePerIsland = math.Max(1, math.Min(hi, math.Abs(rate)))
		cfg.applyDefaults()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("clamped config rejected: %v", err)
		}
		for _, topo := range []string{"star", "direct"} {
			checkAgainstReference(t, cfg, n, topo)
		}
	})
}

// TestScalabilityPointAllocs pins that a point allocates nothing per
// message: the saturated star and the direct topology at 256 islands stay
// under a fixed budget, and five times the messages cost only a few more
// allocations (the growth of the latency sample).
func TestScalabilityPointAllocs(t *testing.T) {
	allocs := func(d time.Duration, topo string) float64 {
		cfg := ScalabilityConfig{Seed: 1, Duration: d}
		cfg.applyDefaults()
		return testing.AllocsPerRun(1, func() { runScalabilityPoint(cfg, 256, topo) })
	}
	for _, topo := range []string{"star", "direct"} {
		long, short := allocs(10*time.Second, topo), allocs(2*time.Second, topo)
		if long >= 1000 {
			t.Errorf("%s/256 over 10s allocated %.0f times, want fewer than 1000", topo, long)
		}
		if long-short > 16 {
			t.Errorf("%s/256 allocated %.0f times over 10s and %.0f over 2s: allocations grow with the message count", topo, long, short)
		}
		t.Logf("%s/256: %.0f allocations over 10s, %.0f over 2s", topo, long, short)
	}
}

// TestScalabilityConfigValidate: every config no point can run on is
// rejected with an error naming the field, and RunCoordScalability panics
// on it in the caller's goroutine.
func TestScalabilityConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  ScalabilityConfig
		want string
	}{
		{"zero island count", ScalabilityConfig{Islands: []int{2, 0}}, "Islands has island count 0"},
		{"negative island count", ScalabilityConfig{Islands: []int{-4}}, "Islands has island count -4"},
		{"repeated island count", ScalabilityConfig{Islands: []int{4, 8, 4}}, "Islands lists island count 4 twice"},
		{"NaN rate", ScalabilityConfig{RatePerIsland: math.NaN()}, "RatePerIsland NaN"},
		{"infinite rate", ScalabilityConfig{RatePerIsland: math.Inf(1)}, "RatePerIsland +Inf"},
		{"negative rate", ScalabilityConfig{RatePerIsland: -5}, "RatePerIsland -5 is negative"},
		{"negative infinite rate", ScalabilityConfig{RatePerIsland: math.Inf(-1)}, "RatePerIsland -Inf is negative"},
		{"rate with a sub-nanosecond interval", ScalabilityConfig{RatePerIsland: 2e9}, "mean interval of 0.5ns"},
		{"rate with an interval over a year", ScalabilityConfig{RatePerIsland: 1e-9}, "RatePerIsland 1e-09/s"},
		{"negative duration", ScalabilityConfig{Duration: -time.Second}, "Duration -1s is negative"},
		{"negative hop latency", ScalabilityConfig{HopLatency: -time.Microsecond}, "HopLatency -1µs is negative"},
		{"negative hub cost", ScalabilityConfig{HubCost: -5 * time.Microsecond}, "HubCost -5µs is negative"},
		{"hub cost over a year", ScalabilityConfig{HubCost: 9000 * time.Hour}, "HubCost 9000h0m0s exceeds"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
			continue
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), tc.want) {
					t.Errorf("%s: RunCoordScalability panicked with %v, want %q", tc.name, r, tc.want)
				}
			}()
			RunCoordScalability(tc.cfg)
		}()
	}

	for _, ok := range []ScalabilityConfig{
		{},
		{Islands: []int{1}, RatePerIsland: 1e9, Duration: time.Nanosecond, HopLatency: time.Nanosecond, HubCost: time.Nanosecond},
		{RatePerIsland: 1e-6, Duration: maxScalabilitySpan, HopLatency: maxScalabilitySpan, HubCost: maxScalabilitySpan},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
}

// TestScalabilityHubPastDeadline: a hub cost at Validate's limit puts the
// hub's backlog past the drain deadline after one message. Nothing may be
// routed, however many messages follow: the backlog must not wrap around
// int64 and bring late messages back inside the deadline.
func TestScalabilityHubPastDeadline(t *testing.T) {
	cfg := ScalabilityConfig{Seed: 1, HubCost: maxScalabilitySpan, Duration: time.Second}
	cfg.applyDefaults()
	p := runScalabilityPoint(cfg, 64, "star")
	if p.OfferedPerSec < 10000 || p.RoutedPerSec > 0 || p.MaxLatencyUs > 0 {
		t.Errorf("star/64 with a %v hub: %v; want over 10000 msgs/s offered and none routed", cfg.HubCost, p)
	}
}
