package mac

import (
	"testing"

	"macaw/internal/frame"
	"macaw/internal/sim"
)

// FuzzQueueMatchesSlice drives a Queue and a plain-slice reference through
// the same operations and requires the same Len, Peek, Pop and contents
// after each. Each input byte is one operation: its low three bits pick
// the operation, its high five a repeat count of 1 to 32, so short inputs
// already cross block boundaries at both ends.
func FuzzQueueMatchesSlice(f *testing.F) {
	f.Add([]byte{0x00, 0x04, 0x06, 0x07})
	f.Add([]byte{0xf8, 0xf8, 0x07, 0xfc, 0x03, 0x07, 0xfc, 0xfc, 0x06})
	f.Add([]byte{0x03, 0x03, 0x07, 0x04, 0xfb, 0x07, 0xfd, 0xfd, 0x07})
	f.Add([]byte{0xf8, 0xfc, 0xf8, 0xfc, 0x00, 0x04, 0x04, 0x03, 0xfb, 0x07})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Queue
		var ref []*Packet
		made := 0
		next := func() *Packet {
			made++
			p := &Packet{Dst: frame.NodeID(made), Size: made % 600, Enqueued: sim.Time(made) * 7,
				Payload: make([]byte, made%13)}
			p.SetSeq(uint32(made * 3))
			return p
		}
		for i, op := range ops {
			for range 1 + int(op>>3) {
				switch op & 7 {
				case 0, 1, 2:
					p := next()
					q.Push(p)
					ref = append(ref, p)
				case 3:
					p := next()
					q.PushFront(p)
					ref = append([]*Packet{p}, ref...)
				case 4, 5:
					var want *Packet
					if len(ref) > 0 {
						want, ref = ref[0], ref[1:]
					}
					if got := q.Pop(); got != want {
						t.Fatalf("op %d: Pop = %p, want %p", i, got, want)
					}
				case 6:
					var want *Packet
					if len(ref) > 0 {
						want = ref[0]
					}
					if got := q.Peek(); got != want {
						t.Fatalf("op %d: Peek = %p, want %p", i, got, want)
					}
				case 7:
					checkQueueState(t, i, &q, ref)
				}
				if q.Len() != len(ref) {
					t.Fatalf("op %d: Len = %d, want %d", i, q.Len(), len(ref))
				}
			}
		}
		checkQueueState(t, len(ops), &q, ref)
	})
}

// checkQueueState requires q to hold ref's packets in ref's order.
func checkQueueState(t *testing.T, op int, q *Queue, ref []*Packet) {
	t.Helper()
	if q.Len() != len(ref) {
		t.Fatalf("op %d: Len = %d, want %d", op, q.Len(), len(ref))
	}
	for i, want := range ref {
		if got := q.at(i); got != want {
			t.Fatalf("op %d: packet %d is %p, want %p", op, i, got, want)
		}
	}
}
