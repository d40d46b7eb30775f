package ixp

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// rxStage is the receive classification stage: packets from the wire queue
// here and a pool of classifier threads (microengine contexts running the
// Rx-classify image) drain them, paying ClassifyCost per packet, running
// the DPI hooks, and steering each packet into its destination VM's flow
// queue. The stage's buffer models the Rx ring in SRAM.
type rxStage struct {
	x        *IXP
	fifo     netsim.FIFO
	bytes    int
	capBytes int

	w *pool // classifier threads

	enq, drops uint64
}

func newRxStage(x *IXP, capBytes int) *rxStage {
	st := &rxStage{x: x, capBytes: capBytes}
	st.w = newPool(x, st)
	return st
}

// enqueue admits a packet from the wire, or tail-drops on a full Rx ring.
func (st *rxStage) enqueue(p *netsim.Packet) bool {
	if st.bytes+p.Size > st.capBytes {
		st.drops++
		return false
	}
	st.fifo.Push(p)
	st.bytes += p.Size
	st.enq++
	st.w.wakeAll()
	return true
}

func (st *rxStage) pop() *netsim.Packet {
	p := st.fifo.Pop()
	if p != nil {
		st.bytes -= p.Size
	}
	return p
}

func (st *rxStage) PollInterval() sim.Time { return st.x.cfg.PollInterval }
func (st *rxStage) gated() bool            { return false }
func (st *rxStage) serviceCost() sim.Time  { return st.x.scaledCost(st.x.cfg.ClassifyCost) }
func (st *rxStage) serve(p *netsim.Packet) { st.x.classify(p) }

// SetClassifierThreads resizes the Rx classification pool — a third
// IXP-side allocation knob alongside dequeue threads and poll intervals.
func (x *IXP) SetClassifierThreads(n int) error {
	if n < 1 {
		return fmt.Errorf("ixp: classifier threads must be >= 1, got %d", n)
	}
	delta := n - x.rx.w.threads
	if delta > 0 {
		if err := x.mes.Assign(delta); err != nil {
			return err
		}
	} else if delta < 0 {
		if err := x.mes.Release(-delta); err != nil {
			return err
		}
	}
	x.threads += delta
	x.rx.w.setThreads(n)
	if x.rec != nil && delta != 0 {
		x.rec.Record(flight.Event{
			T: x.sim.Now(), Cat: flight.CatIXP, Code: flight.IXPClassifier,
			Label: "ixp", Entity: -1, Arg: int64(n),
		})
	}
	return nil
}

// ClassifierThreads returns the Rx classification pool size.
func (x *IXP) ClassifierThreads() int { return x.rx.w.threads }

// RxStageDrops returns packets tail-dropped at the Rx ring before
// classification.
func (x *IXP) RxStageDrops() uint64 { return x.rx.drops }

// classify runs the DPI hooks and steers a classified packet to its flow
// queue (the post-classification half of the old Receive path).
func (x *IXP) classify(p *netsim.Packet) {
	// The admission gate runs before the DPI hooks: a shed packet is
	// invisible to the coordination policies' request accounting (its
	// bounce bypasses the Tx DPIs too, so outstanding-load bookkeeping
	// stays balanced) and never consumes PCIe or host resources.
	if x.admit != nil {
		if resp, ok := x.admit(p); !ok {
			x.rxShed++
			if x.tracer.Enabled(trace.CatNet) {
				x.tracer.Emit(trace.CatNet, "ixp shed: admission gate (pkt %d)", p.ID)
			}
			if x.rec != nil {
				x.rec.Record(flight.Event{
					T: x.sim.Now(), Cat: flight.CatIXP, Code: flight.IXPGateShed,
					Label: "ixp", Entity: int32(p.DstVM), Arg: int64(p.ID),
				})
			}
			if resp != nil && !x.txq.enqueue(resp) {
				x.rxDropped++
			}
			return
		}
	}
	for _, d := range x.dpis {
		d(p)
	}
	q, ok := x.flows[p.DstVM]
	if !ok {
		x.rxDropped++
		x.tracer.Emit(trace.CatNet, "ixp drop: no flow for VM %d (pkt %d)", p.DstVM, p.ID)
		return
	}
	if !q.enqueue(p) {
		x.rxDropped++
		if x.tracer.Enabled(trace.CatNet) {
			x.tracer.Emit(trace.CatNet, "ixp drop: flow %d buffer full (%dB)", p.DstVM, q.Bytes())
		}
	}
}
