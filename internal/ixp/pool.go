package ixp

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// station is a packet queue served by a pool of microengine threads: the
// Rx classification ring or a flow queue.
type station interface {
	pop() *netsim.Packet
	// PollInterval is the polling interval of an idle thread.
	PollInterval() sim.Time
	// gated reports whether threads must hold their next packet: the host
	// message ring is full.
	gated() bool
	// serviceCost is the thread occupancy of the packet just popped.
	serviceCost() sim.Time
	// serve finishes a packet once its service cost has elapsed.
	serve(p *netsim.Packet)
}

// pool is the thread lifecycle shared by the classifier stage and the flow
// queues. Slot id runs while id < threads: it pops a packet, holds it for
// the service cost, serves it, and loops. A slot that finds its queue
// gated or empty parks on its poll grid instead of polling; see park.
type pool struct {
	sim     *sim.Simulator
	st      station
	id      uint32 // creation index among the IXP's pools (see key)
	threads int
	slots   []slot
	// hold runs when a live slot finds its queue gated or empty: park, or
	// in tests repoll, the polling reference the parked pool is checked
	// against.
	hold func(id int, gated bool)
}

// slot is one thread context. A parked slot's pending poll is the grid
// point next, born at born (see key); later polls follow every every. A
// slot parked on the host gate has gated set.
type slot struct {
	alive, parked, gated bool
	next, born, every    sim.Time

	cur        *netsim.Packet // packet in service
	poll, done func()         // prebuilt callbacks
}

func newPool(x *IXP, st station) *pool {
	p := &pool{sim: x.sim, st: st, id: x.pools}
	x.pools++
	p.hold = p.park
	if pollingPools.Load() {
		p.hold = p.repoll
	}
	return p
}

// key is the tie key of slot id's polls: polls at the same instant, born
// at the same instant, run in pool creation order, then slot order, after
// the ordinary events born then. That order is the model's semantics, and
// it is a function of the pools alone, so a poll woken from a parked slot
// sorts exactly where the poll it stands for would have.
func (p *pool) key(id int) uint32 {
	return 1 + (p.id<<16 | uint32(id))
}

// setThreads resizes the pool. Growing spawns a loop for every dead slot
// below n. Shrinking lets each surplus slot die at its next loop boundary;
// a parked surplus slot is woken so that it dies at the grid point its
// pending poll would have reached.
func (p *pool) setThreads(n int) {
	p.threads = n
	for len(p.slots) < n {
		id := len(p.slots)
		p.slots = append(p.slots, slot{
			poll: func() { p.loop(id) },
			done: func() { p.finish(id) },
		})
	}
	for id := 0; id < n; id++ {
		if w := &p.slots[id]; !w.alive {
			w.alive = true
			p.sim.After(0, w.poll)
		}
	}
	for id := n; id < len(p.slots); id++ {
		p.wake(id)
	}
}

// loop is one iteration of slot id: die if deallocated, hold while gated
// or idle, else pop and serve a packet.
func (p *pool) loop(id int) {
	w := &p.slots[id]
	if id >= p.threads {
		w.alive = false
		return
	}
	if p.st.gated() {
		p.hold(id, true)
		return
	}
	pkt := p.st.pop()
	if pkt == nil {
		p.hold(id, false)
		return
	}
	w.cur = pkt
	p.sim.After(p.st.serviceCost(), w.done)
}

// finish completes slot id's packet and loops.
func (p *pool) finish(id int) {
	w := &p.slots[id]
	pkt := w.cur
	w.cur = nil
	p.st.serve(pkt)
	p.loop(id)
}

// park takes the place of scheduling the next poll. Polls of an empty
// queue, or of a gated one, change nothing but the poll chain itself, so
// the slot records the chain instead: the next poll's time and the
// instant it would have been scheduled at. wake turns the chain back into
// an event once a poll could see something: an enqueue for an idle slot,
// the gate opening for a gated one.
func (p *pool) park(id int, gated bool) {
	w := &p.slots[id]
	now := p.sim.Now()
	w.every = p.st.PollInterval()
	w.parked, w.gated = true, gated
	w.next, w.born = now+w.every, now
}

// wakeAll wakes every slot parked on an empty queue, in slot order; an
// enqueue calls it. Slots parked on the gate stay parked: a gated thread
// does not look at its queue.
func (p *pool) wakeAll() {
	for id := range p.slots {
		if !p.slots[id].gated {
			p.wake(id)
		}
	}
}

// wakeGated wakes every slot parked on the gate, in slot order; the gate
// opening calls it.
func (p *pool) wakeGated() {
	for id := range p.slots {
		if p.slots[id].gated {
			p.wake(id)
		}
	}
}

// wake schedules parked slot id's poll at the first grid point not yet
// passed, keyed as born one period earlier, the instant the previous poll
// of the chain would have run. It sorts after every event scheduled before
// that instant, before every event scheduled after it, and among the
// events born then by the slot's key: where the poll it stands for would
// have been.
func (p *pool) wake(id int) {
	w := &p.slots[id]
	if !w.parked {
		return
	}
	p.settle(id)
	w.parked, w.gated = false, false
	p.sim.AtKey(w.next, w.born, p.key(id), w.poll)
}

// rebase switches every parked slot to a new poll interval the way a
// pending poll would: the poll already due keeps the old interval and the
// chain continues from it on the new one.
func (p *pool) rebase(every sim.Time) {
	for id := range p.slots {
		if w := &p.slots[id]; w.parked {
			p.settle(id)
			w.every = every
		}
	}
}

// settle advances parked slot id's grid to its first point not yet passed.
func (p *pool) settle(id int) {
	w := &p.slots[id]
	if !p.sim.Passed(w.next, w.born, p.key(id)) {
		return
	}
	now := p.sim.Now()
	k := sim.Time(1)
	if now > w.next {
		k = (now - w.next + w.every - 1) / w.every
	}
	w.next += k * w.every
	w.born = w.next - w.every
	if p.sim.Passed(w.next, w.born, p.key(id)) {
		w.next += w.every
		w.born += w.every
	}
}
