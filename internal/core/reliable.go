package core

import (
	"fmt"
	"sort"

	"repro/internal/overload"
	"repro/internal/sim"
)

// ReliableConfig parameterizes a ReliableEndpoint. Zero fields take the
// defaults noted below.
type ReliableConfig struct {
	// RTO is the initial retransmission timeout (default 1ms; the
	// prototype's mailbox RTT is ~300us).
	RTO sim.Time
	// MaxRTO caps the exponential backoff (default 100ms).
	MaxRTO sim.Time
	// MaxRetries bounds retransmissions per message; exhausting it marks
	// the link down (default 8).
	MaxRetries int
	// TuneDeadline expires at-most-once messages: once it passes, retries
	// stop and the message is abandoned rather than delivered stale
	// (default 25ms).
	TuneDeadline sim.Time
	// ReorderHold is how long the receiver parks an out-of-order arrival
	// waiting for the gap before skipping it — gaps are permanent when the
	// sender expired an at-most-once message (default 10ms).
	ReorderHold sim.Time

	// MaxOutstanding bounds the sender's retransmit queue (default 512):
	// a send that would exceed it is dropped before a sequence number is
	// consumed (so no gap forms) and counted as QueueFullDrops. Without
	// the cap a long partition grows the queue without limit.
	MaxOutstanding int
	// MaxReorder bounds the receiver's out-of-order parking buffer
	// (default 256): an arrival that would exceed it is dropped unacked
	// (counted as ReorderDrops) so the sender retransmits it once the
	// buffer drains.
	MaxReorder int

	// Breaker, when non-nil, arms a circuit breaker on the send path: a
	// message that exhausts its retries records a failure, an ack records
	// a success, and while the breaker is open sequenced sends fail fast
	// (counted as BreakerRejected) instead of growing the retransmit
	// queue. Nil (the default) changes nothing.
	Breaker *overload.BreakerConfig
}

func (c *ReliableConfig) applyDefaults() {
	if c.RTO == 0 {
		c.RTO = sim.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 100 * sim.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.TuneDeadline == 0 {
		c.TuneDeadline = 25 * sim.Millisecond
	}
	if c.ReorderHold == 0 {
		c.ReorderHold = 10 * sim.Millisecond
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 512
	}
	if c.MaxReorder == 0 {
		c.MaxReorder = 256
	}
}

// ReliableStats counts a ReliableEndpoint's protocol events.
type ReliableStats struct {
	DataSent    uint64 // sequenced messages offered by the application
	Retransmits uint64
	Expired     uint64 // at-most-once messages abandoned at their deadline
	GaveUp      uint64 // messages abandoned after MaxRetries

	AcksSent     uint64
	AcksReceived uint64

	BreakerRejected uint64 // sequenced sends refused while the breaker was open
	QueueFullDrops  uint64 // sends refused because the retransmit queue hit MaxOutstanding

	Delivered    uint64 // sequenced messages handed to the application
	CorruptDrops uint64 // stamped arrivals discarded on checksum mismatch
	DupDrops     uint64 // duplicate arrivals of a buffered out-of-order seq
	StaleDrops   uint64 // arrivals at or below the delivery cursor
	OutOfOrder   uint64 // arrivals buffered ahead of the cursor
	GapSkips     uint64 // sequence numbers skipped after ReorderHold
	ReorderDrops uint64 // out-of-order arrivals refused because the buffer hit MaxReorder

	Downs uint64 // up->down transitions
	Ups   uint64 // down->up transitions
}

// LinkHealth is implemented by transports that track delivery health; the
// Agent's degradation monitor consults it when the uplink provides it.
type LinkHealth interface {
	// Up reports whether the link is believed healthy (acks flowing).
	Up() bool
}

// pendingMsg is one unacknowledged sequenced message at the sender.
type pendingMsg struct {
	msg      Message
	attempts int
	rto      sim.Time
	deadline sim.Time // at-most-once expiry; 0 = retry until MaxRetries
	timer    sim.Event
}

// ReliableEndpoint is one side of a reliability layer decorating a pair of
// unidirectional transports (the raw outbound direction and the raw inbound
// direction of the same duplex link). It implements Transport:
//
//   - outbound data is stamped with a per-link sequence number and
//     retransmitted on timeout with capped exponential backoff until
//     acknowledged, expired (at-most-once kinds), or abandoned
//     (MaxRetries);
//   - inbound data is deduplicated and released in sequence order, with a
//     hold timer that skips permanent gaps; every arrival is acknowledged
//     (selective + cumulative) over the outbound direction;
//   - heartbeats and acks ride best-effort and unsequenced.
//
// Delivery classes per kind come from ClassFor. The endpoint also tracks
// link health: a message that exhausts its retries marks the link down, any
// inbound traffic marks it up again.
type ReliableEndpoint struct {
	sim  *sim.Simulator
	name string
	out  Transport
	cfg  ReliableConfig
	recv func(Message)

	nextSeq     uint64 // next sequence number to assign (first is 1)
	floor       uint64 // lowest sequence number possibly still outstanding
	outstanding map[uint64]*pendingMsg

	expected uint64 // next in-order sequence number to deliver
	buffer   map[uint64]Message
	gapTimer sim.Event

	up      bool
	onState func(up bool)
	breaker *overload.Breaker

	stats ReliableStats
}

// NewReliableEndpoint builds an endpoint named name (diagnostics only) over
// the raw outbound transport out, hooking the raw inbound transport in for
// arrivals. It panics on nil arguments (constructor misuse guard).
func NewReliableEndpoint(s *sim.Simulator, name string, out, in Transport, cfg ReliableConfig) *ReliableEndpoint {
	if s == nil || out == nil || in == nil {
		panic(fmt.Sprintf("core: reliable endpoint %q needs a simulator and both transport directions", name))
	}
	cfg.applyDefaults()
	e := &ReliableEndpoint{
		sim:         s,
		name:        name,
		out:         out,
		cfg:         cfg,
		nextSeq:     1,
		floor:       1,
		expected:    1,
		outstanding: make(map[uint64]*pendingMsg),
		buffer:      make(map[uint64]Message),
		up:          true,
	}
	if cfg.Breaker != nil {
		e.breaker = overload.NewBreaker(s, *cfg.Breaker)
	}
	in.SetReceiver(e.onRaw)
	return e
}

// Breaker returns the endpoint's circuit breaker, nil when not armed.
func (e *ReliableEndpoint) Breaker() *overload.Breaker {
	if e == nil {
		return nil
	}
	return e.breaker
}

// Name returns the endpoint's diagnostic name.
func (e *ReliableEndpoint) Name() string { return e.name }

// Stats returns a snapshot of the endpoint's counters. Nil-safe.
func (e *ReliableEndpoint) Stats() ReliableStats {
	if e == nil {
		return ReliableStats{}
	}
	return e.stats
}

// Up reports whether the link is believed healthy (LinkHealth).
func (e *ReliableEndpoint) Up() bool { return e.up }

// OnStateChange installs fn, invoked on every up/down transition.
func (e *ReliableEndpoint) OnStateChange(fn func(up bool)) { e.onState = fn }

// Outstanding returns the number of unacknowledged sequenced messages.
func (e *ReliableEndpoint) Outstanding() int { return len(e.outstanding) }

// Buffered returns the number of out-of-order arrivals parked at the
// receiver.
func (e *ReliableEndpoint) Buffered() int { return len(e.buffer) }

// EndpointSeqState is the sequence-state summary a controller checkpoint
// records per reliable endpoint: enough to detect, after a failover, how
// far the transport had advanced relative to the last checkpoint.
type EndpointSeqState struct {
	Name     string
	NextSeq  uint64 // next sequence number the sender will assign
	Floor    uint64 // lowest sequence number possibly still outstanding
	Expected uint64 // next in-order sequence number the receiver will deliver
}

// SeqState snapshots the endpoint's sequence cursors. Nil-safe.
func (e *ReliableEndpoint) SeqState() EndpointSeqState {
	if e == nil {
		return EndpointSeqState{}
	}
	return EndpointSeqState{Name: e.name, NextSeq: e.nextSeq, Floor: e.floor, Expected: e.expected}
}

// FlushStale cancels every outstanding at-most-once message (Tunes and
// Sheds) and returns how many were flushed. A promoted controller calls it
// through the platform so the dead primary's in-flight adjustments stop
// retransmitting — the receiver's gap-skip machinery steps over the holes
// exactly as it does for deadline expiry. At-least-once messages (Triggers)
// keep retrying: they are safe to apply late.
func (e *ReliableEndpoint) FlushStale() int {
	if e == nil {
		return 0
	}
	seqs := make([]uint64, 0, len(e.outstanding))
	for s, p := range e.outstanding {
		if ClassFor(p.msg.Kind) == ClassAtMostOnce {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		e.outstanding[s].timer.Cancel()
		delete(e.outstanding, s)
	}
	e.advanceFloor()
	return len(seqs)
}

// SetReceiver installs the application-level consumer of inbound data
// (Transport interface).
func (e *ReliableEndpoint) SetReceiver(fn func(Message)) { e.recv = fn }

// Send conveys msg with its kind's delivery class (Transport interface).
func (e *ReliableEndpoint) Send(msg Message) {
	class := ClassFor(msg.Kind)
	switch class {
	case ClassBestEffort:
		msg.Seq, msg.Ack = 0, 0
		e.out.Send(msg)
		return
	case ClassAtMostOnce, ClassAtLeastOnce:
	}
	if e.breaker != nil && !e.breaker.Allow() {
		// Fail fast: the uplink is believed dead or saturated; dropping
		// here (before a sequence number is consumed, so no gap forms)
		// feeds the graceful-degradation hold-down instead of growing the
		// retransmit queue.
		e.stats.BreakerRejected++
		return
	}
	if len(e.outstanding) >= e.cfg.MaxOutstanding {
		// Hard cap on retransmit state: during a long partition the queue
		// would otherwise grow without bound. Like the breaker rejection,
		// the drop happens before a sequence number is consumed, so the
		// receiver never sees a gap from it.
		e.stats.QueueFullDrops++
		return
	}
	seq := e.nextSeq
	e.nextSeq++
	msg.Seq = seq
	p := &pendingMsg{msg: msg, rto: e.cfg.RTO}
	if class == ClassAtMostOnce {
		p.deadline = e.sim.Now() + e.cfg.TuneDeadline
	}
	e.outstanding[seq] = p
	e.stats.DataSent++
	e.out.Send(msg)
	p.timer = e.sim.After(p.rto, func() { e.retransmit(seq) })
}

// retransmit fires when seq's retransmission timer expires.
func (e *ReliableEndpoint) retransmit(seq uint64) {
	p, ok := e.outstanding[seq]
	if !ok {
		return // acknowledged meanwhile
	}
	now := e.sim.Now()
	if p.deadline > 0 && now >= p.deadline {
		// At-most-once expiry: better to drop the adjustment than apply it
		// after newer state; the receiver will skip the gap.
		delete(e.outstanding, seq)
		e.stats.Expired++
		e.advanceFloor()
		return
	}
	if p.attempts >= e.cfg.MaxRetries {
		delete(e.outstanding, seq)
		e.stats.GaveUp++
		e.advanceFloor()
		if e.breaker != nil {
			e.breaker.RecordFailure()
		}
		e.setUp(false)
		return
	}
	p.attempts++
	e.stats.Retransmits++
	p.rto *= 2
	if p.rto > e.cfg.MaxRTO {
		p.rto = e.cfg.MaxRTO
	}
	e.out.Send(p.msg)
	p.timer = e.sim.After(p.rto, func() { e.retransmit(seq) })
}

// onRaw consumes every arrival on the inbound raw direction.
func (e *ReliableEndpoint) onRaw(m Message) {
	// A stamped frame whose checksum no longer matches its contents was
	// corrupted in flight: drop it unacked, so a sequenced original simply
	// retransmits and redelivers clean. Acting on it — even to ack — could
	// turn bit flips into misactuation. Unstamped frames (Sum zero: locally
	// wired test traffic) skip verification. In the assembled platform the
	// wire transports verify first, so this is the endpoint's own defense
	// when it is wired over an unverified transport.
	if m.Sum != 0 && m.Sum != m.PayloadSum() {
		e.stats.CorruptDrops++
		return
	}
	switch m.Kind {
	case KindAck:
		e.stats.AcksReceived++
		e.setUp(true)
		if e.breaker != nil {
			e.breaker.RecordSuccess()
		}
		e.ackCumulative(m.Ack)
		e.ackOne(m.Seq)
		return
	case KindHeartbeat:
		// Best-effort, unsequenced; inbound traffic is evidence of link
		// health (partitions are modeled symmetric).
		e.setUp(true)
		if e.recv != nil {
			e.recv(m)
		}
		return
	case KindTune, KindTrigger, KindRegister, KindShed:
	}
	e.setUp(true)
	accepted := e.onData(m)
	// Acknowledge after delivery bookkeeping so the cumulative mark
	// reflects this arrival. An arrival refused by the full reorder buffer
	// must not be selectively acked — the sender keeps retransmitting it
	// until the buffer drains (seq 0 is never outstanding, so the selective
	// half becomes a no-op while the cumulative half still flows).
	e.stats.AcksSent++
	selSeq := m.Seq
	if !accepted {
		selSeq = 0
	}
	e.out.Send(Message{Kind: KindAck, From: e.name, Seq: selSeq, Ack: e.expected - 1})
}

// onData runs dedup/reorder delivery for one sequenced arrival. It reports
// whether the arrival was consumed (delivered, parked, or recognized as
// stale/duplicate) as opposed to refused by the full reorder buffer.
func (e *ReliableEndpoint) onData(m Message) bool {
	switch {
	case m.Seq < e.expected:
		// Already delivered or deliberately skipped: a retransmit of a
		// stale message must not be replayed after newer state.
		e.stats.StaleDrops++
	case m.Seq == e.expected:
		e.deliver(m)
		e.expected++
		e.drainBuffer()
	default: // ahead of the cursor: park it
		if _, dup := e.buffer[m.Seq]; dup {
			e.stats.DupDrops++
			return true
		}
		if len(e.buffer) >= e.cfg.MaxReorder {
			// Hard cap on parked state: refuse the arrival unacked so the
			// sender retries later instead of the buffer growing without
			// bound during a reorder storm.
			e.stats.ReorderDrops++
			return false
		}
		e.buffer[m.Seq] = m
		e.stats.OutOfOrder++
		e.armGapTimer()
	}
	return true
}

func (e *ReliableEndpoint) deliver(m Message) {
	e.stats.Delivered++
	if e.recv != nil {
		e.recv(m)
	}
}

// drainBuffer releases parked messages that became in-order.
func (e *ReliableEndpoint) drainBuffer() {
	for {
		m, ok := e.buffer[e.expected]
		if !ok {
			break
		}
		delete(e.buffer, e.expected)
		e.deliver(m)
		e.expected++
	}
	if len(e.buffer) == 0 {
		e.gapTimer.Cancel()
	}
}

// armGapTimer schedules the gap-skip check if one is not already pending.
func (e *ReliableEndpoint) armGapTimer() {
	if e.gapTimer.Pending() || len(e.buffer) == 0 {
		return
	}
	e.gapTimer = e.sim.After(e.cfg.ReorderHold, e.gapExpire)
}

// gapExpire gives up on the missing sequence numbers below the parked
// minimum: the sender has either expired them (at-most-once) or abandoned
// them, and holding newer state hostage to a permanent gap would freeze the
// actuators.
func (e *ReliableEndpoint) gapExpire() {
	if len(e.buffer) == 0 {
		return
	}
	min := uint64(0)
	for s := range e.buffer {
		if min == 0 || s < min {
			min = s
		}
	}
	if min > e.expected {
		e.stats.GapSkips += min - e.expected
		e.expected = min
	}
	e.drainBuffer()
	e.armGapTimer()
}

// ackOne removes one outstanding message (selective acknowledgment).
func (e *ReliableEndpoint) ackOne(seq uint64) {
	p, ok := e.outstanding[seq]
	if !ok {
		return
	}
	p.timer.Cancel()
	delete(e.outstanding, seq)
	e.advanceFloor()
}

// ackCumulative removes every outstanding message at or below cum.
func (e *ReliableEndpoint) ackCumulative(cum uint64) {
	for s := e.floor; s <= cum; s++ {
		if p, ok := e.outstanding[s]; ok {
			p.timer.Cancel()
			delete(e.outstanding, s)
		}
	}
	if cum >= e.floor {
		e.floor = cum + 1
	}
	e.advanceFloor()
}

// advanceFloor moves the floor past sequence numbers no longer outstanding.
func (e *ReliableEndpoint) advanceFloor() {
	for e.floor < e.nextSeq {
		if _, ok := e.outstanding[e.floor]; ok {
			break
		}
		e.floor++
	}
}

// setUp records a link-health observation and fires the transition hook.
func (e *ReliableEndpoint) setUp(up bool) {
	if e.up == up {
		return
	}
	e.up = up
	if up {
		e.stats.Ups++
	} else {
		e.stats.Downs++
	}
	if e.onState != nil {
		e.onState(up)
	}
}
