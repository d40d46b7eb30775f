package netsim

import (
	"testing"

	"repro/internal/sim"
)

// TestFIFOOrderAcrossCompaction interleaves pushes, peeks and pops across
// many head-index compactions and checks strict FIFO order, length, and
// that Peek returns the packet the next Pop removes.
func TestFIFOOrderAcrossCompaction(t *testing.T) {
	var f FIFO
	var next, want uint64
	rng := sim.NewRand(3)
	for step := 0; step < 20000; step++ {
		if rng.Intn(5) < 3 {
			next++
			f.Push(&Packet{ID: next, Size: 64})
		} else if head := f.Peek(); head != nil {
			p := f.Pop()
			want++
			if p != head || p.ID != want {
				t.Fatalf("step %d: peeked %d, popped %d, want %d", step, head.ID, p.ID, want)
			}
		} else if want != next || f.Pop() != nil {
			t.Fatalf("step %d: empty with %d packets outstanding", step, next-want)
		}
		if f.Len() != int(next-want) {
			t.Fatalf("step %d: len %d, want %d", step, f.Len(), next-want)
		}
	}
}

// TestFIFOReleasesPopped checks that a popped packet is no longer held by
// the backing array, before and after compaction.
func TestFIFOReleasesPopped(t *testing.T) {
	var f FIFO
	for i := uint64(1); i <= 100; i++ {
		f.Push(&Packet{ID: i, Size: 64})
	}
	for i := 0; i < 40; i++ {
		f.Pop()
		for j, p := range f.pkts[:f.head] {
			if p != nil {
				t.Fatalf("after %d pops: slot %d still holds packet %d", i+1, j, p.ID)
			}
		}
	}
	for j, p := range f.pkts[len(f.pkts):cap(f.pkts)] {
		if p != nil {
			t.Fatalf("spare slot %d holds packet %d after compaction", j, p.ID)
		}
	}
}
