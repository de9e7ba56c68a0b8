package mac

import (
	"testing"

	"macaw/internal/frame"
)

// FuzzQueueMatchesSlice drives three Queues over one Blocks store, each
// beside a plain-slice reference, through the same operations, and
// requires the same Len, Peek, Pop and contents after each. Each input
// byte is one operation: its low three bits pick the operation, the next
// two the queue (3 picks the first), and its high three a repeat count of
// 1 to 128 in powers of two, so short inputs already cross block
// boundaries at both ends. After every operation the store must account
// for each block it has cut: held by exactly one queue or on its free
// list, never both or neither.
func FuzzQueueMatchesSlice(f *testing.F) {
	f.Add([]byte{0x00, 0x04, 0x06, 0x07})
	f.Add([]byte{0xa0, 0xa8, 0xb0, 0x07, 0xa2, 0x0f, 0xac, 0x6d, 0x17, 0xa6})
	f.Add([]byte{0x02, 0x02, 0x07, 0x03, 0xa3, 0x07, 0x84, 0x84, 0x07})
	f.Add([]byte{0xa0, 0xa4, 0xa8, 0xac, 0x00, 0x03, 0x03, 0x02, 0xa2, 0x07})
	f.Add([]byte{0xc0, 0xc8, 0xa6, 0xb0, 0xae, 0xc0, 0x66, 0xb3, 0x0f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var store Blocks
		qs := []*Queue{new(Queue), new(Queue), new(Queue)}
		for i := range qs {
			*qs[i] = NewQueue(&store)
		}
		refs := make([][]*Packet, len(qs))
		base := &Base{Env: &Env{}}
		made := 0
		next := func() *Packet {
			made++
			p := &Packet{Dst: frame.NodeID(made), Size: uint16(made % 600),
				Payload: make([]byte, made%13)}
			p.SetSeq(uint32(made * 3))
			return p
		}
		for i, op := range ops {
			k := int(op>>3&3) % len(qs)
			q := qs[k]
			for range 1 << (op >> 5) {
				ref := refs[k]
				switch op & 7 {
				case 0, 1:
					p := next()
					q.Push(p)
					ref = append(ref, p)
				case 2:
					p := next()
					q.PushFront(p)
					ref = append([]*Packet{p}, ref...)
				case 3, 4:
					var want *Packet
					if len(ref) > 0 {
						want, ref = ref[0], ref[1:]
					}
					if got := q.Pop(); got != want {
						t.Fatalf("op %d: queue %d: Pop = %p, want %p", i, k, got, want)
					}
				case 5:
					var want *Packet
					if len(ref) > 0 {
						want = ref[0]
					}
					if got := q.Peek(); got != want {
						t.Fatalf("op %d: queue %d: Peek = %p, want %p", i, k, got, want)
					}
				case 6:
					base.DrainQueue(q)
					ref = nil
				case 7:
					checkQueueState(t, i, q, ref)
				}
				refs[k] = ref
				if q.Len() != len(ref) {
					t.Fatalf("op %d: queue %d: Len = %d, want %d", i, k, q.Len(), len(ref))
				}
			}
			checkStore(t, i, &store, qs)
		}
		for k, q := range qs {
			checkQueueState(t, len(ops), q, refs[k])
		}
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

// checkStore requires every block s has cut from its chunks to sit in
// exactly one place: in one of qs, whose block lists must end at their
// tails, or on s's free list.
func checkStore(t *testing.T, op int, s *Blocks, qs []*Queue) {
	t.Helper()
	where := make(map[*block]string)
	claim := func(b *block, owner string) {
		if prev, ok := where[b]; ok {
			t.Fatalf("op %d: block %p in %s and in %s", op, b, prev, owner)
		}
		where[b] = owner
	}
	for k, q := range qs {
		owner := "queue " + string(rune('0'+k))
		var last *block
		for b := q.head; b != nil; b = b.next {
			claim(b, owner)
			last = b
		}
		if last != q.tail {
			t.Fatalf("op %d: %s ends at %p, its tail is %p", op, owner, last, q.tail)
		}
	}
	for b := s.free; b != nil; b = b.next {
		claim(b, "the free list")
	}
	cut := s.i
	for _, c := range s.chunks[:s.c] {
		cut += len(c)
	}
	if len(where) != cut {
		t.Fatalf("op %d: store cut %d blocks, queues and free list hold %d", op, cut, len(where))
	}
}
