package ixp

import (
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FlowQueue is a per-VM packet queue in IXP DRAM, served by a configurable
// number of dequeue threads (the weighted-scheduling knob of §2.1). The
// special transmit queue uses vmID -1 and delivers to the wire instead of
// the host.
type FlowQueue struct {
	x        *IXP
	vmID     int
	capBytes int

	fifo  netsim.FIFO
	bytes int

	w *pool // dequeue threads

	// Edge-triggered high-watermark notification (buffer monitoring use
	// case, Figure 7): fired when occupancy crosses the threshold upward,
	// re-armed when it falls back below.
	watermark      int
	watermarkFn    func(bytes int)
	watermarkArmed bool

	poll sim.Time // per-flow polling interval override (0 = global default)

	enq, deq, drops uint64
	maxBytes        int
}

func newFlowQueue(x *IXP, vmID, capBytes int) *FlowQueue {
	q := &FlowQueue{x: x, vmID: vmID, capBytes: capBytes, watermarkArmed: true}
	q.w = newPool(x, q)
	return q
}

// VM returns the destination VM this queue serves (-1 for the tx queue).
func (q *FlowQueue) VM() int { return q.vmID }

// Len returns the number of queued packets.
func (q *FlowQueue) Len() int { return q.fifo.Len() }

// Bytes returns the current DRAM buffer occupancy in bytes.
func (q *FlowQueue) Bytes() int { return q.bytes }

// MaxBytes returns the high-water mark of buffer occupancy.
func (q *FlowQueue) MaxBytes() int { return q.maxBytes }

// Capacity returns the queue's DRAM buffer capacity in bytes.
func (q *FlowQueue) Capacity() int { return q.capBytes }

// Threads returns the number of dequeue threads serving the queue.
func (q *FlowQueue) Threads() int { return q.w.threads }

// PollInterval returns the queue's effective dequeue-thread polling
// interval.
func (q *FlowQueue) PollInterval() sim.Time {
	if q.poll > 0 {
		return q.poll
	}
	return q.x.cfg.PollInterval
}

// Enqueued, Dequeued, and Dropped return lifetime packet counters.
func (q *FlowQueue) Enqueued() uint64 { return q.enq }

// Dequeued returns the number of packets the dequeue threads have serviced.
func (q *FlowQueue) Dequeued() uint64 { return q.deq }

// Dropped returns packets tail-dropped on buffer overflow.
func (q *FlowQueue) Dropped() uint64 { return q.drops }

// SetHighWatermark installs fn to fire when buffer occupancy crosses bytes
// from below. Passing bytes <= 0 removes the watermark.
func (q *FlowQueue) SetHighWatermark(bytes int, fn func(bytes int)) {
	q.watermark = bytes
	q.watermarkFn = fn
	q.watermarkArmed = true
}

// enqueue adds p, returning false on overflow (tail drop).
func (q *FlowQueue) enqueue(p *netsim.Packet) bool {
	if q.bytes+p.Size > q.capBytes {
		q.drops++
		return false
	}
	q.fifo.Push(p)
	q.bytes += p.Size
	q.enq++
	if q.bytes > q.maxBytes {
		q.maxBytes = q.bytes
	}
	q.w.wakeAll()
	if q.watermark > 0 && q.watermarkArmed && q.bytes >= q.watermark && q.watermarkFn != nil {
		q.watermarkArmed = false
		q.x.tracer.Emit(trace.CatNet, "ixp watermark: flow %d crossed %dB (now %dB)", q.vmID, q.watermark, q.bytes)
		q.watermarkFn(q.bytes)
	}
	return true
}

// pop removes the head packet, or returns nil.
func (q *FlowQueue) pop() *netsim.Packet {
	p := q.fifo.Pop()
	if p == nil {
		return nil
	}
	q.bytes -= p.Size
	q.deq++
	if q.watermark > 0 && q.bytes < q.watermark {
		q.watermarkArmed = true
	}
	return p
}

// gated holds host-bound descriptors in DRAM while the host message ring
// is full; the transmit queue is never gated.
func (q *FlowQueue) gated() bool {
	return q.vmID != -1 && q.x.hostFull
}

func (q *FlowQueue) serviceCost() sim.Time {
	if q.vmID == -1 {
		return q.x.scaledCost(q.x.cfg.TxCost)
	}
	return q.x.scaledCost(q.x.cfg.DequeueCost)
}

// serve delivers a dequeued packet: to the wire from the transmit queue,
// to the host from a flow queue.
func (q *FlowQueue) serve(p *netsim.Packet) {
	if q.vmID == -1 {
		if q.x.toWire != nil {
			q.x.toWire(p)
		}
		return
	}
	q.x.deliverToHost(p)
}
