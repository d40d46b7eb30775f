package sim

import (
	"fmt"
	"testing"
)

// queue is the scheduling surface FuzzEventQueue drives, on the kernel
// (through kernelQueue) and on the reference (refSim) alike.
type queue interface {
	Now() Time
	Pending() int
	At(t Time, fn func()) handle
	After(d Time, fn func()) handle
	AtKey(t, born Time, key uint32, fn func()) handle
	Passed(t, born Time, key uint32) bool
	Step() bool
	RunUntil(deadline Time)
	Stop()
}

type handle interface {
	Cancel()
	Pending() bool
}

// kernelQueue boxes the kernel's value handles for the queue interface.
type kernelQueue struct{ *Simulator }

func (k kernelQueue) At(t Time, fn func()) handle    { return k.Simulator.At(t, fn) }
func (k kernelQueue) After(d Time, fn func()) handle { return k.Simulator.After(d, fn) }
func (k kernelQueue) AtKey(t, born Time, key uint32, fn func()) handle {
	return k.Simulator.AtKey(t, born, key, fn)
}

// fuzzPeriod is the period of every poll chain. Ordinary delays are
// multiples of half of it, so events tie often, on and off the grid.
const fuzzPeriod = 10

// fuzzKeys is the number of distinct positive keys: few, so keyed events
// share a key as often as they differ.
const fuzzKeys = 3

// chain is a parked poll chain, recorded the way internal/ixp's pools
// record one: the next poll's time, born and key.
type chain struct {
	next, born Time
	key        uint32
}

// runQueueOps drives q through the operations encoded in data and returns
// one line per observation: each callback fired, each Cancel's and
// Passed's answer, each pending count. The top level reads an opcode
// (op, Step, RunUntil or a burst of Steps); every fired callback reads a
// count of ops to run, so a run ends when data does. An op schedules with
// At or After; notes the current instant as a born for later; schedules
// with AtKey under a noted born and key 0 or a positive key; schedules a
// poll of a chain (AtKey one period out, born now, with the chain's key);
// parks a chain or wakes a parked one at its first grid point not yet
// passed; cancels a held handle, live or stale; queries Passed; or stops
// the running RunUntil. A stopped RunUntil still moves the clock to its
// deadline, so the events it left queued fire in the clock's past, and so
// may a noted born or a parked chain's born lie after now; the ops that
// would schedule one are skipped.
func runQueueOps(t testing.TB, q queue, data []byte) []string {
	var lines []string
	logf := func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf("%d ", q.Now())+fmt.Sprintf(format, args...))
	}
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	pick := func(n int) int { return next() % n }
	delay := func() Time { return Time(pick(4)) * fuzzPeriod / 2 }
	key := func() uint32 { return 1 + uint32(pick(fuzzKeys)) }

	var (
		handles []handle
		borns   []Time // instants noted for a later AtKey
		parked  []chain
		nextID  int
		op      func()
	)
	fire := func() func() {
		id := nextID
		nextID++
		return func() {
			logf("fire %d", id)
			for n := pick(4); n > 0; n-- {
				op()
			}
		}
	}
	livePending := func() int {
		n := 0
		for _, h := range handles {
			if h.Pending() {
				n++
			}
		}
		return n
	}
	take := func(list *[]chain) chain {
		i := pick(len(*list))
		c := (*list)[i]
		*list = append((*list)[:i], (*list)[i+1:]...)
		return c
	}
	op = func() {
		now := q.Now()
		switch pick(10) {
		case 0:
			handles = append(handles, q.At(now+delay(), fire()))
		case 1:
			handles = append(handles, q.After(delay(), fire()))
		case 2:
			borns = append(borns, now)
		case 3:
			if len(borns) == 0 {
				return
			}
			i := pick(len(borns))
			born := borns[i]
			borns = append(borns[:i], borns[i+1:]...)
			k := uint32(0)
			if pick(2) == 1 {
				k = key()
			}
			if born <= now {
				handles = append(handles, q.AtKey(now+delay(), born, k, fire()))
			}
		case 4:
			handles = append(handles, q.AtKey(now+fuzzPeriod, now, key(), fire()))
		case 5:
			parked = append(parked, chain{next: now + fuzzPeriod, born: now, key: key()})
		case 6:
			if len(parked) == 0 {
				return
			}
			c := take(&parked)
			if q.Passed(c.next, c.born, c.key) {
				// Move to the first grid point not yet passed, keyed born
				// one period earlier.
				k := Time(1)
				if now > c.next {
					k = (now - c.next + fuzzPeriod - 1) / fuzzPeriod
				}
				c.next += k * fuzzPeriod
				c.born = c.next - fuzzPeriod
				if q.Passed(c.next, c.born, c.key) {
					c.next += fuzzPeriod
					c.born += fuzzPeriod
				}
			}
			if c.born <= now {
				handles = append(handles, q.AtKey(c.next, c.born, c.key, fire()))
			}
		case 7:
			if len(handles) == 0 {
				return
			}
			h := handles[pick(len(handles))]
			was, before := h.Pending(), livePending()
			h.Cancel()
			want := before
			if was {
				want--
			}
			if after := livePending(); h.Pending() || after != want {
				t.Fatalf("cancel of a handle pending=%v left it pending=%v and %d of %d live handles pending, want %d",
					was, h.Pending(), after, before, want)
			}
			logf("cancel %v", was)
		case 8:
			at := now + Time(pick(3)-1)*fuzzPeriod/2
			born := at - Time(pick(3))*fuzzPeriod/2
			k := uint32(pick(fuzzKeys + 1))
			logf("passed(%d,%d,%d) %v pending %d", at, born, k, q.Passed(at, born, k), q.Pending())
		case 9:
			q.Stop()
		}
	}

	for pos < len(data) {
		switch pick(4) {
		case 0:
			op()
		case 1:
			logf("step %v", q.Step())
		case 2:
			q.RunUntil(q.Now() + delay())
			logf("until pending %d", q.Pending())
		case 3:
			for n := pick(8); n > 0 && q.Step(); n-- {
			}
		}
	}
	for q.Step() {
	}
	logf("end pending %d", q.Pending())
	return lines
}

// checkQueueOps runs data on the kernel and on the reference and fails on
// the first difference.
func checkQueueOps(t testing.TB, data []byte) {
	got := runQueueOps(t, kernelQueue{New(1)}, data)
	want := runQueueOps(t, newRefSim(), data)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("line %d: kernel %q, reference %q", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("kernel logged %d lines, reference %d", len(got), len(want))
	}
}

// FuzzEventQueue drives the kernel and the reference binary heap of
// *Event (refSim) through the same random interleavings of scheduling,
// cancelling, stepping and Passed queries, and requires the same fired
// order and the same answers. Every Cancel also checks that a handle that
// was no longer pending — its slot possibly reused since — cancelled
// nothing. The seed corpus is in testdata/fuzz.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkQueueOps(t, data)
	})
}

// TestEventQueueMatchesReference runs checkQueueOps over random programs
// of a few sizes, so plain `go test` covers more than the seed corpus.
func TestEventQueueMatchesReference(t *testing.T) {
	rng := NewRand(3)
	for i := 0; i < 300; i++ {
		data := make([]byte, 16+rng.Intn(1024))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		checkQueueOps(t, data)
	}
}
