package core

import (
	"fmt"
	"strings"
	"testing"

	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
	"macaw/internal/transport"
)

// The tests in this file pin what a sweep cell rests on: a network parked
// at a barrier — RunTo, then the event-queue compaction ApplyDelta performs —
// continues exactly as an uninterrupted run; a delta's continuation is a
// pure function of (state at the barrier, delta); and networks in one
// process share no mutable state, so cells may run side by side. Their names
// date from warm-start forking, whose forked continuations they compared
// with cold ones; every sweep cell now continues its own warmed network, so
// they compare that continuation instead.

// firstDiffLine locates the first line where two state inventories differ.
func firstDiffLine(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := range wl {
		if i >= len(gl) {
			return fmt.Sprintf("line %d: state ends %d lines early", i+1, len(wl)-len(gl))
		}
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line %d: state has %d extra lines, first %q", len(wl)+1, len(gl)-len(wl), gl[len(wl)])
}

// finalRender renders a finished network's Results and state inventory.
func finalRender(n *Network) (string, []byte) {
	return fmt.Sprintf("%+v", n.Collect()), statecheck.Dump(n)
}

// sameEnd fails t unless got ended with want's Results and state inventory.
func sameEnd(t *testing.T, what string, want, got *Network) {
	t.Helper()
	wr, ws := finalRender(want)
	gr, gs := finalRender(got)
	if gr != wr {
		t.Errorf("%s: results diverged:\n got:  %s\n want: %s", what, gr, wr)
	}
	if string(gs) != string(ws) {
		t.Errorf("%s: final state diverged at %s", what, firstDiffLine(ws, gs))
	}
}

// straightRun builds the delta test network and runs it to the end with no
// pause.
func straightRun(seed int64, f func() MACFactory, total, warmup sim.Duration) *Network {
	n := buildDeltaNet(seed, f)
	n.Start(total, warmup)
	n.RunTo(n.End())
	return n
}

// TestAdoptFromContinuationBitIdentical: a network parked at a barrier,
// with its event queue compacted as ApplyDelta compacts it, runs to the end
// with byte-identical Results and final state inventory to the uninterrupted
// run, for every protocol and several seeds and barriers.
func TestAdoptFromContinuationBitIdentical(t *testing.T) {
	const total, warmup = 4 * sim.Second, 1 * sim.Second
	for name, f := range deltaFactories() {
		for seed := int64(1); seed <= 5; seed++ {
			for _, barrier := range []sim.Time{sim.Time(warmup), sim.Time(total / 2)} {
				t.Run(fmt.Sprintf("%s/seed%d/b%d", name, seed, barrier), func(t *testing.T) {
					ref := straightRun(seed, f, total, warmup)

					n := buildDeltaNet(seed, f)
					n.Start(total, warmup)
					n.RunTo(barrier)
					n.Sim.ForceCompact()
					n.RunTo(n.End())
					sameEnd(t, "parked at the barrier", ref, n)
				})
			}
		}
	}
}

// TestAdoptFromManyForksShareOneTwin: networks built from one seed share
// nothing. A network parked at the barrier keeps its state, byte for byte,
// while three others of the same seed run whole sweep cells — warmup, delta,
// tail — one after another; all three end alike, and the parked one, given
// the same delta, ends as they did.
func TestAdoptFromManyForksShareOneTwin(t *testing.T) {
	const total, warmup = 3 * sim.Second, 1 * sim.Second
	const kind, value = "mild.dec", 4
	f := deltaFactories()["MACAW"]
	cell := func(n *Network) {
		n.RunTo(sim.Time(warmup))
		if err := n.ApplyDelta(kind, value); err != nil {
			t.Fatalf("ApplyDelta: %v", err)
		}
		n.RunTo(n.End())
	}
	parked := buildDeltaNet(7, f)
	parked.Start(total, warmup)
	parked.RunTo(sim.Time(warmup))
	wantParked := statecheck.Dump(parked)

	var first *Network
	for i := 0; i < 3; i++ {
		n := buildDeltaNet(7, f)
		n.Start(total, warmup)
		cell(n)
		if first == nil {
			first = n
		} else {
			sameEnd(t, fmt.Sprintf("cell %d against cell 0", i), first, n)
		}
		if got := statecheck.Dump(parked); string(got) != string(wantParked) {
			t.Fatalf("cell %d disturbed the parked network at %s", i, firstDiffLine(wantParked, got))
		}
	}
	cell(parked)
	sameEnd(t, "the parked network", first, parked)
}

// TestShareBarrierTwinAndForkRunOn: two networks of one seed, both parked at
// a barrier, run on in lockstep — each recycling its own completed packets —
// and both must end with the Results and final state inventory of an
// uninterrupted control run, for every protocol.
func TestShareBarrierTwinAndForkRunOn(t *testing.T) {
	const total, warmup = 4 * sim.Second, 1 * sim.Second
	const barrier = sim.Time(total / 2)
	for name, f := range deltaFactories() {
		t.Run(name, func(t *testing.T) {
			ctl := straightRun(2, f, total, warmup)

			a, b := buildDeltaNet(2, f), buildDeltaNet(2, f)
			for _, n := range []*Network{a, b} {
				n.Start(total, warmup)
				n.RunTo(barrier)
			}
			a.Sim.ForceCompact()
			for at := barrier + sim.Second/4; at <= a.End(); at += sim.Second / 4 {
				a.RunTo(at)
				b.RunTo(at)
			}
			sameEnd(t, "the compacted network", ctl, a)
			sameEnd(t, "its lockstep partner", ctl, b)
		})
	}
}

// TestAdoptFromRequiresShareBarrier: a packet enqueued before a barrier and
// completed after it, once the queue was compacted there, is recycled like
// any other: it comes back zeroed, every field zero and its payload empty,
// and the next offer reuses it.
func TestAdoptFromRequiresShareBarrier(t *testing.T) {
	n := NewNetwork(1)
	st, c := captureStation(n, "P")
	seg := transport.Segment{Proto: transport.ProtoUDP, Stream: 1, Kind: transport.KindData, Seq: 1}
	st.SendSegment(2, seg, 512)
	st.SendSegment(2, seg, 512)
	n.RunTo(sim.Time(sim.Second))
	n.Sim.ForceCompact()

	for i, done := range []func(*mac.Packet){
		c.cb.NotifySent,
		func(p *mac.Packet) { c.cb.NotifyDropped(p, mac.DropRetries) },
	} {
		p := c.got[i]
		done(p)
		if !recycled(p) {
			t.Fatalf("packet %d enqueued before the barrier not zeroed on completion: %+v", i, *p)
		}
	}
	if len(st.free) != 2 {
		t.Fatalf("free list holds %d packets, want both completed ones", len(st.free))
	}
	seg.Seq = 2
	st.SendSegment(3, seg, 40)
	if p := c.got[2]; p != c.got[1] || p.Dst != 3 || p.Size != 40 {
		t.Fatalf("the next offer did not reuse the last completed packet")
	}
}

// TestAdoptFromRefusesMismatchedShapes: the state inventory every
// continuation test compares is not blind to what tells two networks apart.
// It differs between a network that has run and one that has not, between
// two protocols on one topology, and between two station counts.
func TestAdoptFromRefusesMismatchedShapes(t *testing.T) {
	const total, warmup = 2 * sim.Second, 1 * sim.Second
	f := deltaFactories()["MACA"]
	started := func(n *Network) string {
		n.Start(total, warmup)
		return string(statecheck.Dump(n))
	}
	base := started(buildDeltaNet(3, f))

	ran := buildDeltaNet(3, f)
	ran.Start(total, warmup)
	ran.RunTo(sim.Second / 2)
	if string(statecheck.Dump(ran)) == base {
		t.Error("a network that ran half a second dumps the state of one that has not")
	}
	if started(buildDeltaNet(3, deltaFactories()["MACAW"])) == base {
		t.Error("MACAW and MACA dump the same state on one topology")
	}
	small := NewNetwork(3)
	small.AddStation("B", geom.V(0, 0, 12), f())
	if started(small) == base {
		t.Error("a one-station network dumps the state of the four-station one")
	}
}

// deltaApplies lists, per engine, the delta kinds that retune it. Every
// other kind is a deterministic no-op there (core/delta.go).
var deltaApplies = map[string][]string{
	"MACA":  {"backoff.min", "backoff.max", "load.rate", "retry.limit"},
	"MACAW": {"backoff.min", "backoff.max", "mild.inc", "mild.dec", "load.rate", "retry.limit"},
	"CSMA":  {"backoff.min", "backoff.max", "load.rate", "retry.limit"},
	"token": {"load.rate"},
	"DCF":   {"load.rate", "cw.min", "cw.max", "retry.short", "retry.long"},
	"TOURN": {"load.rate", "retry.limit", "tournament.window"},
}

// TestForkWithDeltaMatchesColdDelta is the sweep cell's correctness core:
// for every protocol and delta kind, a delta's continuation is a pure
// function of (state at the barrier, delta). A cell stepped to its barrier
// and on to the end in quarter-second slices ends byte-identical — Results
// and final state inventory — to one that runs straight to the barrier,
// applies the same delta and runs straight to the end. A kind that does not
// retune the protocol leaves the run byte-identical to the delta-free run.
func TestForkWithDeltaMatchesColdDelta(t *testing.T) {
	const total, warmup = 4 * sim.Second, 1 * sim.Second
	const barrier = sim.Time(warmup)
	deltas := []struct {
		kind  string
		value float64
	}{
		{"backoff.min", 4},
		{"backoff.max", 16},
		{"mild.inc", 2.0},
		{"mild.dec", 2},
		{"load.rate", 52},
		{"retry.limit", 2},
		{"cw.min", 31},
		{"cw.max", 511},
		{"retry.short", 3},
		{"retry.long", 2},
		{"tournament.window", 16},
	}
	for name, f := range deltaFactories() {
		applies := make(map[string]bool)
		for _, k := range deltaApplies[name] {
			applies[k] = true
		}
		for _, d := range deltas {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s=%g/seed%d", name, d.kind, d.value, seed), func(t *testing.T) {
					straight := buildDeltaNet(seed, f)
					straight.Start(total, warmup)
					straight.RunTo(barrier)
					if err := straight.ApplyDelta(d.kind, d.value); err != nil {
						t.Fatalf("ApplyDelta: %v", err)
					}
					straight.RunTo(straight.End())

					stepped := buildDeltaNet(seed, f)
					stepped.Start(total, warmup)
					for at := sim.Time(sim.Second / 4); at <= barrier; at += sim.Second / 4 {
						stepped.RunTo(at)
					}
					if err := stepped.ApplyDelta(d.kind, d.value); err != nil {
						t.Fatalf("stepped ApplyDelta: %v", err)
					}
					for at := barrier + sim.Second/4; at <= stepped.End(); at += sim.Second / 4 {
						stepped.RunTo(at)
					}
					sameEnd(t, "stepped cell", straight, stepped)

					if !applies[d.kind] {
						sameEnd(t, "no-op delta against the delta-free run", straightRun(seed, f, total, warmup), straight)
					}
				})
			}
		}
	}
}
