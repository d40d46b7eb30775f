package ixp_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/ixp"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/sim"
)

// figure7Run is one whole-platform run of the Figure 7 shape. A UDP stream
// to a player guest bursts 10x for 30 ms of every 200 ms. The player's
// bounded handler holds a 4-packet socket buffer drained by 400 µs of guest
// CPU per packet, so each burst fills the 128-packet host ring, gates the
// flow threads, and backs the flow queue past its 32 KB watermark, whose
// crossing sends a Trigger. A second guest's flow stays idle. It returns
// every host delivery and watermark crossing plus the final counters, one
// line each, the flight log, and the events fired.
func figure7Run(t *testing.T, polling bool) (lines []string, log []byte, fired uint64) {
	var buf bytes.Buffer
	rec, err := flight.NewRecorder(&buf, 3, nil, 256)
	if err != nil {
		t.Fatal(err)
	}
	if polling {
		ixp.PollForTest(t)
	}
	p := platform.New(platform.Config{Seed: 3, Flight: rec})
	logf := func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf("%d ", p.Sim.Now())+fmt.Sprintf(format, args...))
	}
	player := p.AddGuest("player", 256)
	p.AddGuest("idle", 256)
	p.Host.SetRingCapacity(128)
	p.X86Act.EnableTriggerSurge(p.Sim, 1.8, 50*sim.Millisecond)

	queued := 0
	p.Host.RegisterBounded(player.ID(), func(pkt *netsim.Packet) bool {
		if queued == 4 {
			return false
		}
		queued++
		logf("host %d", pkt.ID)
		player.SubmitFunc(400*sim.Microsecond, "decode", func() { queued-- })
		return true
	})
	q := p.IXP.Flow(player.ID())
	q.SetHighWatermark(32<<10, func(b int) {
		logf("watermark at %d", b)
		p.IXPAgent.SendTrigger(platform.X86Island, player.ID())
	})

	var id uint64
	var send func()
	send = func() {
		id++
		p.IXP.Receive(&netsim.Packet{ID: id, Size: 1024, DstVM: player.ID(), SrcVM: -1, Class: netsim.ClassStream, Created: p.Sim.Now()})
		gap := sim.Millisecond
		if p.Sim.Now()%(200*sim.Millisecond) < 30*sim.Millisecond {
			gap = 100 * sim.Microsecond
		}
		p.Sim.After(gap, send)
	}
	p.Sim.After(0, send)
	p.Sim.RunUntil(2 * sim.Second)

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	logf("flow enq %d deq %d drops %d max %d; host delivered %d retries %d; rx seen %d dropped %d",
		q.Enqueued(), q.Dequeued(), q.Dropped(), q.MaxBytes(),
		p.Host.RxDelivered(), p.Host.Retries(), p.IXP.RxSeen(), p.IXP.RxDropped())
	return lines, buf.Bytes(), p.Sim.Fired()
}

// TestPlatformParkedVsPolling runs the Figure 7-shaped platform with parked
// IXP threads and with the polling reference, and requires the same host
// deliveries, watermark crossings, counters and flight-log bytes.
func TestPlatformParkedVsPolling(t *testing.T) {
	parked, parkedLog, parkedFired := figure7Run(t, false)
	polling, pollingLog, pollingFired := figure7Run(t, true)
	for i := 0; i < len(parked) && i < len(polling); i++ {
		if parked[i] != polling[i] {
			t.Fatalf("line %d: parked %q, polling %q", i, parked[i], polling[i])
		}
	}
	if len(parked) != len(polling) {
		t.Fatalf("parked logged %d lines, polling %d", len(parked), len(polling))
	}
	if !bytes.Equal(parkedLog, pollingLog) {
		t.Fatalf("flight logs differ (%d vs %d bytes)", len(parkedLog), len(pollingLog))
	}
	crossings := 0
	for _, l := range parked {
		if strings.Contains(l, "watermark") {
			crossings++
		}
	}
	// An ungated flow queue drains in microseconds; only a closed host
	// gate backs it up past the watermark.
	if crossings < 5 {
		t.Fatalf("%d watermark crossings: the run does not exercise the host gate", crossings)
	}
	t.Logf("%d lines, %d crossings, %d flight bytes; events parked %d, polling %d",
		len(parked), crossings, len(parkedLog), parkedFired, pollingFired)
}
