package core

import (
	"sync"

	"macaw/internal/mac"
	"macaw/internal/sim"
)

// Spares hands a finished network's storage to the next network built
// through it (DESIGN.md §8, "Recycled networks"): its simulator, whose RNG
// generators and event storage the next simulator takes over through
// sim.Simulator.Recycle; its packet slab, whose packets keep their payload
// buffers; its offer-word arena; and the chunks of its MAC queue-block
// store (mac.Blocks). Network builds from it and Release gives back, so a
// sequence of networks holds storage only for the largest one so far.
// Reuse is passive: a network built through Spares runs, and dumps,
// exactly like one from NewNetwork.
//
// A Spares is safe for concurrent use; networks built from one may run on
// different goroutines. It is scoped by its owner, one per table run and
// one per shard worker, never process-wide, so what a run reuses is a
// function of the runs before it in the same scope. The zero value is
// ready, and a nil *Spares builds fresh networks.
type Spares struct {
	mu     sync.Mutex
	sims   []*sim.Simulator
	blocks []*packetBlock
	words  []sim.Time
	queues mac.Blocks
}

// packetsPerBlock is the number of packets in one slab block: 32 records
// of 32 bytes fill the 1024-byte size class exactly.
const packetsPerBlock = 32

// packetBlock is one block of a network's packet slab.
type packetBlock [packetsPerBlock]mac.Packet

// Network returns a network for seed, as NewNetwork does, that takes over
// the storage of the networks released to sp. A nil sp builds a fresh
// network.
func (sp *Spares) Network(seed int64) *Network {
	n := NewNetwork(seed)
	if sp == nil {
		return n
	}
	n.spares = sp
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if k := len(sp.sims); k > 0 {
		n.Sim.Recycle(sp.sims[k-1])
		sp.sims[k-1] = nil
		sp.sims = sp.sims[:k-1]
	}
	n.blocks, sp.blocks = sp.blocks, nil
	n.words, sp.words = sp.words, nil
	sp.queues.MoveTo(n.queues)
	return n
}

// Release ends the network: Start, RunTo, Collect and a second Release
// panic from here on, and a network built through Spares hands its storage
// back to them. The next network takes over the simulator, whose pending
// events are dropped and whose RNG streams panic on a later draw (see
// sim.Simulator.Recycle); the packets, which every station and MAC engine
// of n may still point to, are rewritten as the next network sends; and
// so are the offer words, which every stream's offer bookkeeping points
// into; and so are the queue blocks, which every MAC engine's queues hold.
// So nothing of n may be read after Release: call it once the run's
// results and observers are done.
func (n *Network) Release() {
	n.mustLive("Release")
	n.released = true
	sp := n.spares
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.sims = append(sp.sims, n.Sim)
	sp.blocks = append(n.blocks, sp.blocks...)
	if cap(n.words) > cap(sp.words) {
		sp.words = n.words
	}
	n.blocks, n.words = nil, nil
	n.queues.MoveTo(&sp.queues)
}

// mustLive panics when n has been released.
func (n *Network) mustLive(op string) {
	if n.released {
		panic("core: " + op + " on a released network")
	}
}

// packet returns the next unused packet of the network's slab. A block
// taken from Spares holds what its earlier owner left in each packet; the
// caller keeps the payload buffer and overwrites every other field, as
// SendSegment and the engine's Admit do.
func (n *Network) packet() *mac.Packet {
	b := n.used / packetsPerBlock
	if b == len(n.blocks) {
		n.blocks = append(n.blocks, new(packetBlock))
	}
	p := &n.blocks[b][n.used%packetsPerBlock]
	n.used++
	return p
}
