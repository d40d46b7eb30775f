package ixp

import (
	"sync/atomic"
	"testing"
)

// pollingPools makes newPool build polling pools (see PollForTest).
var pollingPools atomic.Bool

// PollForTest makes every thread pool built until tb's test ends poll
// instead of parking, so a test can check a parked run against the
// polling loop. Only a test can call it; tb must not run in parallel with
// other tests that build an IXP.
func PollForTest(tb testing.TB) {
	tb.Helper()
	if !pollingPools.CompareAndSwap(false, true) {
		tb.Fatal("ixp: PollForTest is already in effect")
	}
	tb.Cleanup(func() { pollingPools.Store(false) })
}

// repoll is the hold of a polling pool: a thread that finds its queue
// empty or gated schedules its next poll one interval out, under its
// slot's key. This is the worker loop the parked pools replace, kept as
// the behaviour they must reproduce event for event.
func (p *pool) repoll(id int, _ bool) {
	now := p.sim.Now()
	p.sim.AtKey(now+p.st.PollInterval(), now, p.key(id), p.slots[id].poll)
}
