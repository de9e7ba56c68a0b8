package core

import (
	"sync"

	"macaw/internal/mac"
	"macaw/internal/phy"
	"macaw/internal/sim"
)

// Spares hands a finished network's storage to the next network built
// through it (DESIGN.md §8, "Recycled networks"): its simulator, whose RNG
// generators and event storage the next simulator takes over through
// sim.Simulator.Recycle; its medium, in whose record the next medium is
// built, taking over its radio, transmission and reception records and
// arrays, through phy.Reuse; its packet slab, whose packets keep their
// payload buffers; its offer-word arena; and the chunks of its MAC queue-block
// store (mac.Blocks). Release pushes the five as one bundle and Network
// pops the bundle released last, so a Spares holds one bundle for each
// network that was live at the same moment, each sized for the largest
// network it has served. Reuse is passive: a network built through Spares
// runs, and dumps, exactly like one from NewNetwork.
//
// A Spares is safe for concurrent use; networks built from one may run on
// different goroutines. Its owner scopes it: the experiments package keeps
// one for every run it makes, and each shard worker one of its own, so
// what a run reuses is a function of the runs before it in the same scope.
// The zero value is ready, and a nil *Spares builds fresh networks.
type Spares struct {
	mu      sync.Mutex
	bundles []bundle
}

// bundle is the storage one released network leaves: its simulator, its
// medium, its packet slab, its offer words and its queue-block chunks.
// Spares keeps bundles by value, so Release allocates nothing once the
// stack has room.
type bundle struct {
	sim    *sim.Simulator
	medium *phy.Medium
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
// the bundle released to sp last, if any. A nil sp builds a fresh network.
func (sp *Spares) Network(seed int64) *Network {
	if sp == nil {
		return NewNetwork(seed)
	}
	sp.mu.Lock()
	var b bundle
	if k := len(sp.bundles); k > 0 {
		b = sp.bundles[k-1]
		sp.bundles[k-1] = bundle{}
		sp.bundles = sp.bundles[:k-1]
	}
	sp.mu.Unlock()
	n := newNetwork(seed, b.medium)
	n.spares = sp
	if b.sim != nil {
		n.Sim.Recycle(b.sim)
		n.blocks, n.words = b.blocks, b.words
		b.queues.MoveTo(n.queues)
	}
	return n
}

// Release ends the network: Start, RunTo, Collect, AddStation and a second
// Release panic from here on, and a network built through Spares pushes its
// storage onto them as one bundle. The next network takes over the
// simulator, whose pending events are dropped and whose RNG streams panic
// on a later draw (see sim.Simulator.Recycle); the medium, n.Medium
// itself, which becomes the next network's, and whose radio records, which
// every station's Radio() and MAC engine point to, are rewritten as the
// next network attaches its stations (see phy.Reuse); the packets, which
// every station and MAC engine of n may still point to, are rewritten as
// the next network sends; and so are the offer words, which every
// stream's offer bookkeeping points into; and so are the queue blocks,
// which every MAC engine's queues hold. So nothing of n, a station's Radio() included, may be read after
// Release: call it once the run's results and observers are done.
func (n *Network) Release() {
	n.mustLive("Release")
	n.released = true
	sp := n.spares
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.bundles = append(sp.bundles, bundle{sim: n.Sim, medium: n.Medium, blocks: n.blocks, words: n.words})
	n.queues.MoveTo(&sp.bundles[len(sp.bundles)-1].queues)
	n.blocks, n.words = nil, nil
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
