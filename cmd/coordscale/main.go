// Command coordscale explores the scalability of the coordination
// mechanisms to large many-core platforms — the paper's stated ongoing
// work: a star topology through a central controller versus direct
// (distributed) island-to-island coordination.
//
// Usage:
//
//	coordscale [-rate 200] [-hop 150us] [-hub 50us] [-duration 10s] [-seed N]
//	           [-workers N] [-reps N]
//
// Points fan out across a worker pool (-workers, default GOMAXPROCS) with
// results identical for any worker count; -reps repeats each point on
// derived seed substreams and reports mean ± 95% CI. A flag value the
// study cannot run on (a negative latency, say) exits with status 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
)

func main() {
	rate := flag.Float64("rate", 200, "coordination messages/s per island")
	hop := flag.Duration("hop", 150*time.Microsecond, "per-hop transport latency")
	hub := flag.Duration("hub", 50*time.Microsecond, "central controller per-message cost")
	duration := flag.Duration("duration", 10*time.Second, "simulated time per point")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	reps := flag.Int("reps", 1, "repetitions per point (mean ± 95% CI)")
	flag.Parse()

	cfg := repro.ScalabilityConfig{
		Seed:          *seed,
		RatePerIsland: *rate,
		HopLatency:    *hop,
		HubCost:       *hub,
		Duration:      *duration,
		Workers:       *workers,
		Reps:          *reps,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "coordscale: %v\n", err)
		os.Exit(2)
	}
	fmt.Print(repro.FormatScalability(repro.RunCoordScalability(cfg)))
}
