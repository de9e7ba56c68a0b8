package frame

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPeersMatchesMap drives a Peers table with random reads and writes on
// stations that first appear in random order, and requires every read to
// equal a map's and the records to stay in ascending station order.
func TestPeersMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var p Peers[uint32]
	want := map[NodeID]uint32{}
	for i := 0; i < 5000; i++ {
		id := NodeID(rng.Intn(40))
		w, ok := want[id]
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint32()
			*p.Add(id) = v
			want[id] = v
		case 1:
			if r := p.Get(id); (r != nil) != ok || ok && *r != w {
				t.Fatalf("call %d: Get(%v) = %v, map holds %d (%v)", i, id, r, w, ok)
			}
		case 2:
			if got := p.Value(id); got != w {
				t.Fatalf("call %d: Value(%v) = %d, map holds %d", i, id, got, w)
			}
		}
		if p.Len() != len(want) {
			t.Fatalf("call %d: %d records, map holds %d", i, p.Len(), len(want))
		}
	}
	var ids []NodeID
	for i := 0; i < p.Len(); i++ {
		id, r := p.At(i)
		if *r != want[id] {
			t.Fatalf("At(%d) = %v: %d, map holds %d", i, id, *r, want[id])
		}
		ids = append(ids, id)
	}
	if !slices.IsSorted(ids) {
		t.Fatalf("records out of station order: %v", ids)
	}
}
