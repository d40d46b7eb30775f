package sim

// Rank places a poll chain among the other chains on its grid. A poll
// chain is a sequence of events, each scheduled by the one before exactly
// one period earlier; its root is the event that scheduled the first. Two
// chains with the same period and phase tie on (when, born) at every grid
// point they share, and the original FIFO order between their polls is
// the order in which the previous polls ran, one period earlier. By
// induction that order is fixed at the instant the younger chain joined
// the grid: its root ran before the older chain's poll at that instant if
// the root was born earlier than the poll, that is, if its delay exceeded
// the period (a long root), and after it if its delay was shorter (a short
// root). So long-rooted chains come first, the most recently joined first,
// then short-rooted chains, the earliest joined first; chains joining at
// the same instant keep the order of their roots.
//
// A Rank is what lets a component that stops scheduling idle polls — it
// records where the next one would be instead — wake a chain at a later
// grid point and still sort it exactly where the poll it stands for would
// have been. The one order a Rank cannot reproduce is against an event
// outside every chain that was itself scheduled exactly one period before
// the grid point; those compare by sequence number.
type Rank struct {
	entry Time   // instant of the root
	long  bool   // the root's delay exceeded the period
	born  Time   // the root's born
	seq   uint64 // the root's sequence number
	prev  *Rank  // the root's own rank when the root was a poll of a chain
}

// RootRank returns the rank of a chain with the given period whose root
// runs at instant at with key (born, seq) and rank r (nil when the root is
// not itself a poll of a chain).
func RootRank(at, born Time, seq uint64, r *Rank, period Time) *Rank {
	return &Rank{entry: at, long: at-born > period, born: born, seq: seq, prev: r}
}

// ChainRank returns the rank of the poll chain, with the given period, whose
// latest poll is the event executing now: that event's own rank when it is
// a poll of a chain scheduled one period earlier, otherwise the rank of a
// new chain rooted at it.
func (s *Simulator) ChainRank(period Time) *Rank {
	c := s.cur
	if c.rank != nil && s.now-c.born == period {
		return c.rank
	}
	return RootRank(s.now, c.born, c.seq, c.rank, period)
}

// cmp orders two ranks of chains on one grid: -1 if a's polls come first,
// +1 if b's do, 0 if either is nil or they do not differ.
func (a *Rank) cmp(b *Rank) int {
	switch {
	case a == nil || b == nil || a == b:
		return 0
	case a.long != b.long:
		return order(a.long)
	case a.entry != b.entry:
		// Long roots jump ahead of every chain already on the grid,
		// short roots queue behind them.
		return order((a.entry > b.entry) == a.long)
	case a.born != b.born:
		return order(a.born < b.born)
	case a.prev != nil && b.prev != nil:
		return a.prev.cmp(b.prev)
	case a.seq != b.seq:
		return order(a.seq < b.seq)
	}
	return 0
}

func order(first bool) int {
	if first {
		return -1
	}
	return 1
}
