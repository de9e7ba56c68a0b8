package core

import (
	"sync"

	"macaw/internal/mac"
)

// Spares hands a finished network's storage to the next network built
// through it (DESIGN.md §8, "Recycled networks"). Release pushes the
// network itself, and Network pops the one released last and builds the
// new network in its record (see newNetwork), so a Spares holds one
// network for each that was live at the same moment, each sized for the
// largest it has served. The new network takes over:
//
//   - the simulator's RNG generators and event storage, through
//     sim.Simulator.Recycle; the RNG streams stay fresh, so a stale draw
//     on the old simulator's streams panics;
//   - the medium's record, radio, transmission and reception records and
//     arrays, through phy.Reuse;
//   - the packet slab, whose packets keep their payload buffers, the
//     payload and offer-word arenas and the MAC queue-block store
//     (mac.Blocks);
//   - the station records, each with its MAC environment and engine, and
//     the stream records, each with its traffic source, counter and UDP
//     sender and receiver: AddStation and AddStream rebuild them in
//     place, and each backend's constructor rebuilds its engine in the
//     old one's record, keeping the capacity of its per-peer tables,
//     policy and scratch slices (mac.Env.Spare);
//   - the station list, the stream list and the station-name map,
//     emptied.
//
// Reuse is passive: a network built through Spares runs, and dumps,
// exactly like one from NewNetwork.
//
// A Spares is safe for concurrent use; networks built from one may run on
// different goroutines. Its owner scopes it: the experiments package keeps
// one for every run it makes, and each shard worker one of its own, so
// what a run reuses is a function of the runs before it in the same scope.
// The zero value is ready, and a nil *Spares builds fresh networks.
type Spares struct {
	mu   sync.Mutex
	nets []*Network
}

// packetsPerBlock is the number of packets in one slab block: 32 records
// of 32 bytes fill the 1024-byte size class exactly.
const packetsPerBlock = 32

// packetBlock is one block of a network's packet slab.
type packetBlock [packetsPerBlock]mac.Packet

// Network returns a network for seed, as NewNetwork does, built in the
// record of the network released to sp last, if any. A nil sp builds a
// fresh network.
func (sp *Spares) Network(seed int64) *Network {
	if sp == nil {
		return NewNetwork(seed)
	}
	sp.mu.Lock()
	var dead *Network
	if k := len(sp.nets); k > 0 {
		dead = sp.nets[k-1]
		sp.nets[k-1] = nil
		sp.nets = sp.nets[:k-1]
	}
	sp.mu.Unlock()
	n := newNetwork(seed, dead)
	n.spares = sp
	return n
}

// Release ends the network: Start, RunTo, Collect, AddStation, a second
// Release, and a station's SendSegment, Crash and Restart panic from
// here on, until a later network is built in n's record. A network built
// through Spares then goes onto them, and the next network built through
// them is built in its record, taking over its storage (see Spares): its
// simulator, whose pending events are dropped and whose RNG streams panic
// on a later draw (see sim.Simulator.Recycle); its medium, whose radio
// records every station's Radio() and MAC engine point to; its packets,
// which every station and MAC engine may still point to; its offer words
// and queue blocks; and its station, stream and engine records
// themselves. So nothing of n, a station's Radio() included, may be read
// after Release: call it once the run's results and observers are done.
func (n *Network) Release() {
	n.mustLive("Release")
	n.released = true
	sp := n.spares
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.nets = append(sp.nets, n)
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
