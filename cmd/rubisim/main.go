// Command rubisim runs a single RUBiS experiment on the two-island testbed
// and prints the full per-request-type breakdown, Table 2 metrics, and the
// coordination plane's activity.
//
// Usage:
//
//	rubisim [-coord] [-scheme outstanding|loadtrack|class] [-sessions N]
//	        [-duration 130s] [-latency 150us] [-mix bid|browsing] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
)

func main() {
	coord := flag.Bool("coord", false, "enable the coord-ixp-dom0 scheme")
	scheme := flag.String("scheme", "outstanding", "coordination policy variant")
	sessions := flag.Int("sessions", 0, "concurrent client sessions (0 = default 80)")
	duration := flag.Duration("duration", 130*time.Second, "simulated run length")
	latency := flag.Duration("latency", 0, "coordination channel one-way latency (0 = default 150us)")
	mix := flag.String("mix", "bid", "workload mix: bid (read-write) or browsing (read-only)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	cfg := repro.RubisConfig{
		Seed:         *seed,
		Duration:     *duration,
		Scheme:       repro.CoordScheme(*scheme),
		CoordLatency: *latency,
		Sessions:     *sessions,
		Mix:          *mix,
	}
	if err := cfg.Scheme.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "rubisim: %v\n", err)
		os.Exit(2)
	}
	r := repro.RunRubis(cfg, *coord)

	fmt.Printf("RUBiS run: coordinated=%v scheme=%s mix=%s sessions=%d duration=%v\n\n",
		*coord, *scheme, *mix, *sessions, *duration)
	fmt.Printf("%-26s %6s %9s %9s %9s %9s\n", "request type", "n", "min(ms)", "avg(ms)", "max(ms)", "stddev")
	for _, t := range r.PerType {
		if t.Count == 0 {
			continue
		}
		fmt.Printf("%-26s %6d %9.0f %9.0f %9.0f %9.0f\n", t.Name, t.Count, t.MinMs, t.AvgMs, t.MaxMs, t.StdDevMs)
	}
	fmt.Printf("\nthroughput: %.1f req/s   sessions: %d (avg %.1fs)   efficiency: %.2f\n",
		r.Throughput, r.SessionsCompleted, r.AvgSessionSec, r.Efficiency)
	fmt.Printf("cpu: web=%.0f%% app=%.0f%% db=%.0f%% dom0=%.0f%% total=%.0f%%\n",
		r.WebUtil, r.AppUtil, r.DBUtil, r.Dom0Util, r.TotalUtil)
	if *coord {
		fmt.Printf("coordination: %d tunes sent, %d applied, final weights %v\n",
			r.TunesSent, r.TunesApplied, r.FinalWeights)
	}
}
