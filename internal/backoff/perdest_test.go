package backoff

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"macaw/internal/frame"
)

// TestPeerLayout pins the Peer record at 24 bytes: six 32-bit fields and
// no padding. A field widened back to int grows the record, and with it
// the slice every per-destination policy keeps its peers in.
func TestPeerLayout(t *testing.T) {
	if got := unsafe.Sizeof(Peer{}); got != 24 {
		t.Fatalf("Peer is %d bytes, want 24", got)
	}
}

// refPerDest is PerDest's rules over a map of separately allocated,
// full-width records: the reference TestPerDestMatchesMapReference holds the
// sorted value records against.
type refPerDest struct {
	strat Strategy
	alpha int
	my    int
	peers map[frame.NodeID]*refPeer
}

type refPeer struct {
	local, remote, sendRetry, seenRetry int
	sendESN, seenESN                    uint32
}

func (p *refPerDest) peer(id frame.NodeID) *refPeer {
	pe := p.peers[id]
	if pe == nil {
		pe = &refPeer{local: p.my, remote: IDontKnow, sendESN: 1, sendRetry: 1}
		p.peers[id] = pe
	}
	return pe
}

func (p *refPerDest) ids() []frame.NodeID {
	var ids []frame.NodeID
	for id := range p.peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (p *refPerDest) clamp(v int) int { return clamp(v, p.strat.Min(), p.strat.Max()) }

func (p *refPerDest) header(v int16) (int, bool) {
	if v < 0 {
		return 0, false
	}
	return p.clamp(int(v)), true
}

func (p *refPerDest) backoff(dst frame.NodeID) int {
	pe := p.peer(dst)
	bo := pe.local
	if pe.remote != IDontKnow {
		bo += pe.remote
	}
	return clamp(bo, p.strat.Min(), 2*p.strat.Max())
}

func (p *refPerDest) startExchange(dst frame.NodeID) {
	pe := p.peer(dst)
	pe.local, pe.sendRetry = p.my, 1
	pe.sendESN++
}

func (p *refPerDest) stamp(f *frame.Frame) {
	pe := p.peer(f.Dst)
	f.LocalBackoff, f.RemoteBackoff, f.ESN = int16(pe.local), int16(pe.remote), pe.sendESN
}

func (p *refPerDest) overhear(f *frame.Frame) {
	if f.Type == frame.RTS {
		return
	}
	if local, ok := p.header(f.LocalBackoff); ok {
		p.peer(f.Src).remote, p.my = local, local
	}
	if remote, ok := p.header(f.RemoteBackoff); ok {
		p.peer(f.Dst).remote = remote
	}
}

func (p *refPerDest) receive(f *frame.Frame) {
	pe := p.peer(f.Src)
	local, okLocal := p.header(f.LocalBackoff)
	if f.Type == frame.RTS {
		if f.ESN != pe.seenESN {
			pe.seenESN, pe.seenRetry = f.ESN, 1
			return
		}
		if okLocal {
			pe.remote = p.clamp(local + pe.seenRetry*p.alpha)
			if remote, ok := p.header(f.RemoteBackoff); ok {
				pe.local = p.clamp(local + remote - pe.remote)
			}
		}
		pe.seenRetry++
		return
	}
	pe.seenESN, pe.seenRetry = f.ESN, 1
	if okLocal {
		pe.remote = local
	}
	if remote, ok := p.header(f.RemoteBackoff); ok {
		pe.local, p.my = remote, remote
	}
}

func (p *refPerDest) success(dst frame.NodeID) {
	pe := p.peer(dst)
	pe.local = p.strat.Dec(pe.local)
	if pe.remote != IDontKnow {
		pe.remote = p.strat.Dec(pe.remote)
	}
	p.my, pe.sendRetry = pe.local, 1
}

func (p *refPerDest) failure(dst frame.NodeID) {
	pe := p.peer(dst)
	v := pe.remote
	if v == IDontKnow {
		v = p.strat.Min()
	}
	pe.remote = p.clamp(v + pe.sendRetry*p.alpha)
	pe.sendRetry++
}

func (p *refPerDest) giveUp(dst frame.NodeID) {
	pe := p.peer(dst)
	pe.local, pe.sendRetry = p.strat.Max(), 1
}

// stamped is the header StampSend writes.
type stamped struct {
	local, remote int16
	esn           uint32
}

// stamp returns the header fn stamps on a copy of f.
func stamp(fn func(*frame.Frame), f frame.Frame) stamped {
	fn(&f)
	return stamped{f.LocalBackoff, f.RemoteBackoff, f.ESN}
}

// TestPerDestMatchesMapReference drives PerDest and the map-backed
// reference with the same random Policy calls, on peer ids that first
// appear in random order, through frames whose header values and exchange
// numbers run out of range and backwards. After every call the two must
// list the same peers, have the same my_backoff, and give the same window
// and stamp the same header toward every peer.
func TestPerDestMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9e4d))
	types := []frame.Type{frame.RTS, frame.CTS, frame.DS, frame.DATA, frame.ACK}
	for trial := 0; trial < 40; trial++ {
		// The third strategy's window is as wide as a header can carry.
		strat := []Strategy{NewMILD(), NewBEB(), MILD{BOMin: DefaultMin, BOMax: 1<<15 - 1}}[trial%3]
		p := NewPerDest(strat)
		ref := &refPerDest{strat: strat, alpha: DefaultAlpha, my: strat.Min(), peers: map[frame.NodeID]*refPeer{}}
		ids := rng.Perm(40)[:2+rng.Intn(20)]
		id := func() frame.NodeID { return frame.NodeID(1 + ids[rng.Intn(len(ids))]) }
		header := func() int16 {
			if rng.Intn(4) == 0 {
				return int16(rng.Intn(1<<16) - 1<<15)
			}
			return int16(rng.Intn(80) - 4)
		}
		for call := 0; call < 400; call++ {
			f := frame.Frame{Type: types[rng.Intn(len(types))], Src: id(), Dst: id(),
				LocalBackoff: header(), RemoteBackoff: header(), ESN: uint32(rng.Intn(6))}
			dst := id()
			var op string
			switch rng.Intn(8) {
			case 0:
				op = "Backoff"
				if got, want := p.Backoff(dst), ref.backoff(dst); got != want {
					t.Fatalf("trial %d call %d: Backoff(%v) = %d, reference %d", trial, call, dst, got, want)
				}
			case 1:
				op = "StartExchange"
				p.StartExchange(dst)
				ref.startExchange(dst)
			case 2:
				op = "StampSend"
				if g, w := stamp(p.StampSend, f), stamp(ref.stamp, f); g != w {
					t.Fatalf("trial %d call %d: StampSend stamped %+v, reference %+v", trial, call, g, w)
				}
			case 3:
				op = "OnOverhear"
				p.OnOverhear(&f)
				ref.overhear(&f)
			case 4:
				op = "OnReceive"
				p.OnReceive(&f)
				ref.receive(&f)
			case 5:
				op = "OnSuccess"
				p.OnSuccess(dst)
				ref.success(dst)
			case 6:
				op = "OnFailure"
				p.OnFailure(dst)
				ref.failure(dst)
			case 7:
				op = "OnGiveUp"
				p.OnGiveUp(dst)
				ref.giveUp(dst)
			}
			got, want := p.PeerIDs(), ref.ids()
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d call %d (%s): PeerIDs %v, reference %v", trial, call, op, got, want)
			}
			if p.My != ref.my {
				t.Fatalf("trial %d call %d (%s): my_backoff %d, reference %d", trial, call, op, p.My, ref.my)
			}
			for _, id := range got {
				if g, w := p.Backoff(id), ref.backoff(id); g != w {
					t.Fatalf("trial %d call %d (%s): Backoff(%v) = %d, reference %d", trial, call, op, id, g, w)
				}
				f := frame.Frame{Dst: id}
				if g, w := stamp(p.StampSend, f), stamp(ref.stamp, f); g != w {
					t.Fatalf("trial %d call %d (%s): StampSend toward %v stamped %+v, reference %+v", trial, call, op, id, g, w)
				}
			}
		}
	}
}

// TestSparesPerDestReset: a policy Reset after a run of its own, under
// another strategy, answers the same random Policy calls as a new policy
// does, and keeps its peer table: as many peers as it held before cost it
// no growth.
func TestSparesPerDestReset(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5ba7))
	types := []frame.Type{frame.RTS, frame.CTS, frame.DS, frame.DATA, frame.ACK}
	drive := func(ps ...*PerDest) {
		for call := 0; call < 300; call++ {
			f := frame.Frame{Type: types[rng.Intn(len(types))], Src: frame.NodeID(1 + rng.Intn(12)),
				Dst: frame.NodeID(1 + rng.Intn(12)), LocalBackoff: int16(rng.Intn(80) - 4),
				RemoteBackoff: int16(rng.Intn(80) - 4), ESN: uint32(rng.Intn(6))}
			op := rng.Intn(5)
			var got []stamped
			for _, p := range ps {
				switch op {
				case 0:
					p.OnOverhear(&f)
				case 1:
					p.OnReceive(&f)
				case 2:
					p.OnSuccess(f.Dst)
				case 3:
					p.OnFailure(f.Dst)
				case 4:
					p.StartExchange(f.Dst)
				}
				got = append(got, stamp(p.StampSend, f))
				got = append(got, stamped{int16(p.Backoff(f.Src)), int16(p.My), 0})
			}
			if len(ps) == 2 && (got[0] != got[2] || got[1] != got[3] || !slices.Equal(ps[0].PeerIDs(), ps[1].PeerIDs())) {
				t.Fatalf("call %d: the reset policy answered %v, a new one %v", call, got[:2], got[2:])
			}
		}
	}
	peersCap := func(p *PerDest) int { return reflect.ValueOf(&p.peers).Elem().Field(0).Cap() }

	used := NewPerDest(NewBEB())
	drive(used)
	held, cp := len(used.PeerIDs()), peersCap(used)
	used.Reset(NewMILD())
	if len(used.PeerIDs()) != 0 || peersCap(used) != cp {
		t.Fatalf("Reset left %d peers and a table of capacity %d, want 0 and %d", len(used.PeerIDs()), peersCap(used), cp)
	}
	drive(used, NewPerDest(NewMILD()))
	if len(used.PeerIDs()) > held || peersCap(used) != cp {
		t.Fatalf("%d peers grew the reset table from %d to %d", len(used.PeerIDs()), cp, peersCap(used))
	}
}
