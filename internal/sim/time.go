// Package sim provides a deterministic discrete-event simulation kernel.
//
// All platform substrates in this repository (the Xen credit scheduler, the
// IXP network processor, the PCIe interconnect, and the workload models) are
// driven by a single Simulator instance. Events execute in strict timestamp
// order with FIFO tie-breaking (events scheduled with AtKey break ties by
// their born instant and key first), and all randomness flows through the
// Simulator's seeded source, so a run is a pure function of its
// configuration and seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the start of
// the simulation. Durations are also expressed as Time; the zero value is
// the simulation epoch.
type Time int64

// Convenient duration units, mirroring package time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Duration converts t to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// FromDuration converts a time.Duration to a sim.Time.
func FromDuration(d time.Duration) Time { return Time(d) }

// String formats t using time.Duration notation (e.g. "1.5ms").
func (t Time) String() string { return time.Duration(t).String() }

// Scale multiplies t by a dimensionless factor, rounding to the nearest
// nanosecond. It panics if f is negative.
func (t Time) Scale(f float64) Time {
	if f < 0 {
		panic(fmt.Sprintf("sim: negative time scale %v", f))
	}
	return Time(float64(t)*f + 0.5)
}
