package ixp

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/flight"
	"repro/internal/netsim"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// opRun is everything observable from one run: host deliveries, wire
// output, watermark crossings, operation errors and final counters, one
// line each, plus the flight log and the number of events fired.
type opRun struct {
	lines  []string
	flight []byte
	events uint64
}

// fuzzVMs are the registered flows; vm 9 is unknown to the IXP.
var fuzzVMs = []int{1, 2, 3, 9}

// runIXPOps drives one IXP, with parked or polling thread pools, through
// the operations encoded in data (see FuzzIXPParkedVsPolling).
func runIXPOps(t testing.TB, data []byte, polling bool) opRun {
	const maxOps = 256
	if polling {
		pollingPools.Store(true)
		defer pollingPools.Store(false)
	}
	s := sim.New(7)
	var out opRun
	logf := func(format string, args ...interface{}) {
		out.lines = append(out.lines, fmt.Sprintf("%d ", s.Now())+fmt.Sprintf(format, args...))
	}
	ch := pcie.NewChannel(s, "ixp-host", pcie.Config{Latency: sim.Microsecond, Bandwidth: 1e9})
	x := New(s, Config{RxRingBytes: 16 << 10, BufferBytes: 12 << 10}, ch, func(p *netsim.Packet) {
		logf("host %d vm %d", p.ID, p.DstVM)
	})
	var buf bytes.Buffer
	rec, err := flight.NewRecorder(&buf, 7, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	x.SetFlightRecorder(rec)
	x.ConnectWire(func(p *netsim.Packet) { logf("wire %d vm %d", p.ID, p.DstVM) })
	gate := false
	var nextID uint64
	x.SetAdmission(func(p *netsim.Packet) (*netsim.Packet, bool) {
		if p.ID%11 != 5 {
			return nil, true
		}
		nextID++
		return &netsim.Packet{ID: nextID, Size: 64, DstVM: -1}, false
	})
	for _, vm := range fuzzVMs[:3] {
		q := x.RegisterFlow(vm)
		vm := vm
		q.SetHighWatermark(6<<10, func(b int) { logf("watermark vm %d at %d", vm, b) })
	}

	cfg := x.Config()
	// Op times advance by whole poll intervals (landing on the grid of
	// every thread parked at a multiple of it), by service costs, or by an
	// unrelated odd stride.
	strides := []sim.Time{cfg.PollInterval, cfg.DequeueCost, cfg.ClassifyCost, 997}
	// An op is scheduled from time zero, or lead before its time, so that it
	// ties on born with the polls scheduled at that instant.
	leads := []sim.Time{0, 300, sim.Microsecond, 3 * sim.Microsecond, cfg.PollInterval}
	sizes := []int{64, 200, 576, 1500}
	polls := []sim.Time{0, 5 * sim.Microsecond, 25 * sim.Microsecond, 40 * sim.Microsecond,
		50 * sim.Microsecond, 64 * sim.Microsecond, 100 * sim.Microsecond}
	send := func(in bool, n, vmSel, size byte) {
		for i := 0; i <= int(n%4); i++ {
			nextID++
			p := &netsim.Packet{ID: nextID, Size: sizes[int(size)%len(sizes)], DstVM: fuzzVMs[int(vmSel)%len(fuzzVMs)]}
			if in {
				x.Receive(p)
			} else {
				x.TransmitFromHost(p)
			}
		}
	}
	logErr := func(what string, err error) {
		if err != nil {
			logf("%s: %v", what, err)
		}
	}
	var at sim.Time
	for i := 0; i+4 < len(data) && i < 5*maxOps; i += 5 {
		op, a, b, c, d := data[i], data[i+1], data[i+2], data[i+3], data[i+4]
		run := func() {
			switch op % 8 {
			case 0:
				send(true, a, b, c)
			case 1:
				send(false, a, b, c)
			case 2:
				logErr("flow threads", x.SetFlowThreads(fuzzVMs[int(b)%3], 1+int(a%4)))
			case 3:
				logErr("classifier threads", x.SetClassifierThreads(1+int(a%8)))
			case 4:
				logErr("poll", x.SetFlowPollInterval(fuzzVMs[int(b)%3], polls[int(a)%len(polls)]))
			case 5:
				gate = !gate
				x.SetHostGate(gate)
			case 6:
				logErr("pools", x.SetActivePools(1+int(a%NumMEPools)))
			}
		}
		if lead := leads[int(op/8)%len(leads)]; lead > 0 && lead <= at {
			s.At(at-lead, func() { s.After(lead, run) })
		} else {
			s.At(at, run)
		}
		at += sim.Time(d/4%8) * strides[d%4]
	}
	s.RunUntil(100 * sim.Millisecond)
	x.SetHostGate(false)
	s.RunUntil(120 * sim.Millisecond)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	out.flight = buf.Bytes()
	out.events = s.Fired()
	logf("rx seen %d dropped %d shed %d stage-drops %d tx seen %d threads %d classifiers %d",
		x.RxSeen(), x.RxDropped(), x.RxShed(), x.RxStageDrops(), x.TxSeen(), x.ThreadsAllocated(), x.ClassifierThreads())
	for _, q := range append([]*FlowQueue{x.txq}, x.flows[1], x.flows[2], x.flows[3]) {
		logf("queue %d enq %d deq %d drops %d max %d len %d threads %d poll %d",
			q.VM(), q.Enqueued(), q.Dequeued(), q.Dropped(), q.MaxBytes(), q.Len(), q.Threads(), q.PollInterval())
	}
	return out
}

// checkParkedVsPolling runs data through both pools and fails on the first
// difference in anything observable.
func checkParkedVsPolling(t testing.TB, data []byte) (parked, polling opRun) {
	parked = runIXPOps(t, data, false)
	polling = runIXPOps(t, data, true)
	n := len(parked.lines)
	if len(polling.lines) < n {
		n = len(polling.lines)
	}
	for i := 0; i < n; i++ {
		if parked.lines[i] != polling.lines[i] {
			t.Fatalf("line %d: parked %q, polling %q", i, parked.lines[i], polling.lines[i])
		}
	}
	if len(parked.lines) != len(polling.lines) {
		t.Fatalf("parked logged %d lines, polling %d", len(parked.lines), len(polling.lines))
	}
	if !bytes.Equal(parked.flight, polling.flight) {
		t.Fatalf("flight logs differ (%d vs %d bytes)", len(parked.flight), len(polling.flight))
	}
	return parked, polling
}

// FuzzIXPParkedVsPolling drives the parked thread pools and the polling
// reference through the same random operations — arrival bursts on and
// off the poll grid, thread-pool resizes, poll-interval changes, host-gate
// toggles through SetHostGate and pool gating — and requires identical
// output. Each op is five bytes: an opcode (low three bits; the rest,
// modulo the number of leads, picks the lead), three arguments, and a
// step to the next op whose low two bits pick the stride (0 whole poll
// intervals, 1 dequeue cost, 2 classify cost, 3 odd) and bits 2-4 the
// stride count. The seed corpus is in testdata/fuzz.
func FuzzIXPParkedVsPolling(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParkedVsPolling(t, data)
	})
}

// TestParkingDropsIdlePolls checks that parking removes the idle polls:
// a few arrival bursts, some on the poll grid, fire a small fraction of
// the polling reference's events for the same output.
func TestParkingDropsIdlePolls(t *testing.T) {
	ops := []byte{0, 0, 1, 1, 4, 8, 1, 2, 3, 8, 16, 2, 0, 0, 8, 24, 3, 1, 2, 4, 0, 0, 0, 0, 0}
	parked, polling := checkParkedVsPolling(t, ops)
	if parked.events*10 > polling.events {
		t.Errorf("parked fired %d events, polling %d; want over 10x fewer", parked.events, polling.events)
	}
}

// TestParkingDropsGatedPolls checks that parking removes the gated polls:
// with the host gate closed from the start until the final reopen, bursts
// to every flow leave its threads gated, and the parked pools fire a small
// fraction of the polling reference's events for the same output.
func TestParkingDropsGatedPolls(t *testing.T) {
	ops := []byte{
		5, 0, 0, 0, 4, // close the gate
		0, 3, 0, 1, 8, // bursts to vms 1, 2 and 3, on and off the grid
		0, 3, 1, 2, 7,
		0, 3, 2, 0, 28,
		0, 1, 0, 3, 29,
		0, 2, 1, 1, 0,
	}
	parked, polling := checkParkedVsPolling(t, ops)
	if parked.events*10 > polling.events {
		t.Errorf("parked fired %d events, polling %d; want over 10x fewer", parked.events, polling.events)
	}
}
