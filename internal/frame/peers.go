package frame

import "slices"

// Peers keeps one record of type T per remote station, by value, in a
// slice sorted by NodeID and searched by bisection: what a MAC engine or a
// backoff policy keeps per peer. A station has few peers, so the slice is
// short and dense, and a record costs no allocation of its own. A pointer
// to a record dies at the next Add that inserts one. The zero value is
// empty.
type Peers[T any] struct {
	recs []peerRec[T]
}

type peerRec[T any] struct {
	id  NodeID
	rec T
}

// find returns where id's record is, or belongs, and whether it is there.
func (p *Peers[T]) find(id NodeID) (int, bool) {
	return slices.BinarySearchFunc(p.recs, id, func(r peerRec[T], id NodeID) int { return int(r.id) - int(id) })
}

// Get returns id's record, or nil if there is none.
func (p *Peers[T]) Get(id NodeID) *T {
	if i, ok := p.find(id); ok {
		return &p.recs[i].rec
	}
	return nil
}

// Value returns a copy of id's record, the zero T if there is none.
func (p *Peers[T]) Value(id NodeID) (v T) {
	if r := p.Get(id); r != nil {
		v = *r
	}
	return v
}

// Add returns id's record, inserting a zero one if there is none.
func (p *Peers[T]) Add(id NodeID) *T {
	i, ok := p.find(id)
	if !ok {
		p.recs = slices.Insert(p.recs, i, peerRec[T]{id: id})
	}
	return &p.recs[i].rec
}

// Reset removes every record, keeping the slice's capacity.
func (p *Peers[T]) Reset() { p.recs = p.recs[:0] }

// Len returns the number of records.
func (p *Peers[T]) Len() int { return len(p.recs) }

// At returns the i-th record and its station, in ascending NodeID order.
func (p *Peers[T]) At(i int) (NodeID, *T) { return p.recs[i].id, &p.recs[i].rec }
