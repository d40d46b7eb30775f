package netsim

// FIFO is a packet queue with O(1) push and pop: a head index into the
// backing slice, compacted once the consumed prefix is at least half of
// it. Popped slots are cleared, so a delivered packet is not kept
// reachable by the queue. The zero value is an empty queue; callers bound
// it (by bytes or by a ring capacity) before pushing.
type FIFO struct {
	pkts []*Packet
	head int
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return len(f.pkts) - f.head }

// Push appends p at the tail.
func (f *FIFO) Push(p *Packet) { f.pkts = append(f.pkts, p) }

// Peek returns the head packet without removing it, or nil.
func (f *FIFO) Peek() *Packet {
	if f.head == len(f.pkts) {
		return nil
	}
	return f.pkts[f.head]
}

// Pop removes and returns the head packet, or nil.
func (f *FIFO) Pop() *Packet {
	if f.head == len(f.pkts) {
		return nil
	}
	p := f.pkts[f.head]
	f.pkts[f.head] = nil
	f.head++
	switch {
	case f.head == len(f.pkts):
		f.pkts, f.head = f.pkts[:0], 0
	case f.head >= 32 && 2*f.head >= len(f.pkts):
		n := copy(f.pkts, f.pkts[f.head:])
		clear(f.pkts[n:])
		f.pkts, f.head = f.pkts[:n], 0
	}
	return p
}
