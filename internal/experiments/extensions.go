package experiments

import (
	"fmt"

	"macaw/internal/backoff"
	"macaw/internal/core"
	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/mac/macaw"
	"macaw/internal/mac/token"
	"macaw/internal/phy"
	"macaw/internal/sim"
	"macaw/internal/topo"
)

// Extension experiments: the §4 "Future Design Issues" alternatives the
// paper describes but does not evaluate, measured with the same harness.

// ExtAckSchemes compares the three acknowledgement designs of §3.3.1/§4 —
// per-packet ACK, piggybacked ACK, and NACK — on a saturated single-cell
// stream across noise levels.
func ExtAckSchemes(cfg RunConfig) Table {
	type scheme struct {
		name string
		opt  macaw.Options
	}
	schemes := []scheme{
		{"ACK", macaw.DefaultOptions()},
		{"piggyback", func() macaw.Options { o := macaw.DefaultOptions(); o.PiggybackACK = true; return o }()},
		{"NACK", func() macaw.Options { o := macaw.DefaultOptions(); o.NACK = true; return o }()},
	}
	rates := []float64{0, 0.01, 0.1}
	rows := make([]string, len(rates))
	for i, p := range rates {
		rows[i] = fmt.Sprintf("p=%g", p)
	}
	// Submit all scheme x rate runs before collecting any.
	futs := make([][]*future[float64], len(schemes))
	for si, sc := range schemes {
		futs[si] = make([]*future[float64], len(rates))
		for pi, p := range rates {
			name, opt, p := sc.name, sc.opt, p
			futs[si][pi] = goFuture(cfg, func() float64 {
				n := cfg.spares.Network(cfg.Seed)
				rc := cfg.instrument(fmt.Sprintf("%s/p=%g", name, p), n)
				f := core.MACAWFactory(opt)
				pad := n.AddStation("P", geom.V(-4, 0, 6), f)
				base := n.AddStation("B", geom.V(0, 0, 12), f)
				n.AddStream(pad, base, core.UDP, 64)
				if p > 0 {
					n.Medium.SetNoise(phy.DestLoss{P: p})
				}
				res := rc.run(n)
				return res.PPS("P-B")
			})
		}
	}
	var cols []Column
	for si, sc := range schemes {
		var r core.Results
		for pi, p := range rates {
			r.Streams = append(r.Streams, core.StreamResult{
				Name: fmt.Sprintf("p=%g", p), PPS: futs[si][pi].wait(),
			})
		}
		cols = append(cols, Column{Name: sc.name, Results: r})
	}
	return Table{
		ID: "ext-ackschemes", Figure: "single cell",
		Title:   "§4 acknowledgement alternatives: ACK vs piggybacked ACK vs NACK, UDP under noise",
		Streams: rows,
		Columns: cols,
		Notes:   "not evaluated in the paper ('we have not tested either of these alternative ACKing schemes')",
	}
}

// ExtCarrierSense compares the DS packet against §3.3.2's carrier-sense
// alternative on the exposed-terminal cells of Figure 5.
func ExtCarrierSense(cfg RunConfig) Table {
	l := topo.Figure5()
	pol := singlePolicy(backoff.NewMILD(), true)
	ds := cfg.goRun("DS", l, variant(macaw.Options{Exchange: macaw.Full, PerStream: true}, pol))
	cs := cfg.goRun("carrier sense", l, variant(macaw.Options{Exchange: macaw.WithACK, PerStream: true, CarrierSense: true}, pol))
	both := cfg.goRun("DS + carrier sense", l, variant(macaw.Options{Exchange: macaw.Full, PerStream: true, CarrierSense: true}, pol))
	return Table{
		ID: "ext-carriersense", Figure: l.Name,
		Title:   "§3.3.2 alternatives for exposed terminals: DS packet vs carrier sense vs both",
		Streams: streamNames(l),
		Columns: []Column{
			{Name: "DS", Results: ds.wait()},
			{Name: "carrier sense", Results: cs.wait()},
			{Name: "DS + carrier sense", Results: both.wait()},
		},
		Notes: "the paper chose DS to avoid carrier-sense hardware; 'one could equivalently use full carrier-sense, which also inhibits RTS-RTS collisions'",
	}
}

// ExtLeakage reproduces the §3.4 backoff-leakage discussion on Figure 8:
// four saturating pads in cell C1 overhear border pad P5 in lightly loaded
// C2, so station-level copying exports C1's high counters into C2. The
// per-destination scheme is supposed to keep the congestion estimates
// separate.
func ExtLeakage(cfg RunConfig) Table {
	l := topo.Figure8()
	single := cfg.goRun("Single+copy", l, variant(
		macaw.Options{Exchange: macaw.Full, PerStream: true, RRTS: true},
		singlePolicy(backoff.NewMILD(), true)))
	perDest := cfg.goRun("Per-destination", l, variant(
		macaw.Options{Exchange: macaw.Full, PerStream: true, RRTS: true},
		perDestPolicy(backoff.NewMILD())))
	return Table{
		ID: "ext-leakage", Figure: l.Name,
		Title:   "§3.4 backoff leakage across the cell border: single copied counter vs per-destination",
		Streams: streamNames(l),
		Columns: []Column{
			{Name: "Single+copy", Results: single.wait()},
			{Name: "Per-destination", Results: perDest.wait()},
		},
		Notes: "the claim under test is C2's throughput (P5-B2, P6-B2): leaked C1 counters idle the uncongested cell",
	}
}

// MulticastResult summarizes the §3.3.4 multicast experiment.
type MulticastResult struct {
	// Sent counts multicast data packets transmitted.
	Sent int
	// NearDelivered / FarDelivered count receptions at a receiver inside
	// the sender's range and at one hidden from the sender (in range of
	// an interferer only).
	NearDelivered, FarDelivered int
	// InterfererDelivered counts the interfering unicast stream's
	// deliveries.
	InterfererDelivered int
}

// ExtMulticast exercises the §3.3.4 RTS-DATA multicast scheme and its
// acknowledged flaw: stations in range of a *receiver* but not the sender
// get no signal to defer, so a hidden interferer destroys multicast
// receptions that unicast's CTS would have protected.
func ExtMulticast(cfg RunConfig) MulticastResult {
	s := sim.New(cfg.Seed)
	medium := phy.New(s, phy.DefaultParams())
	cfgMAC := mac.DefaultConfig()
	blocks := new(mac.Blocks)

	type node struct {
		m         *macaw.MACAW
		delivered int
		sent      int
	}
	add := func(id frame.NodeID, pos geom.Vec3) *node {
		nd := &node{}
		radio := medium.Attach(id, pos, nil)
		env := &mac.Env{
			Sim: s, Radio: radio, Rand: s.NewRand(), Cfg: cfgMAC, Blocks: blocks,
			Callbacks: mac.Callbacks{
				Deliver: func(frame.NodeID, []byte) { nd.delivered++ },
				Sent:    func(*mac.Packet) { nd.sent++ },
			},
		}
		nd.m = macaw.New(env, macaw.DefaultOptions())
		return nd
	}

	// Geometry: sender S multicasts; N is near S; F is near the edge of
	// S's range and also in range of hidden interferer H, who unicasts to
	// its own partner X and cannot hear S at all.
	sender := add(1, geom.V(0, 0, 6))
	near := add(2, geom.V(3, 0, 6))
	far := add(3, geom.V(9, 0, 6))
	hidden := add(4, geom.V(17, 0, 6))
	partner := add(5, geom.V(25, 0, 6))
	_ = partner

	mcast := 0
	for i := 0; i < int(cfg.Total/sim.Second)*16; i++ {
		sender.m.Enqueue(&mac.Packet{Dst: frame.Broadcast, Size: frame.DefaultDataBytes})
		hidden.m.Enqueue(&mac.Packet{Dst: 5, Size: frame.DefaultDataBytes})
		mcast++
	}
	s.Run(cfg.Total)
	return MulticastResult{
		Sent:                sender.sent,
		NearDelivered:       near.delivered,
		FarDelivered:        far.delivered,
		InterfererDelivered: partner.delivered,
	}
}

// ExtTokenVsMACAW compares the token-based scheme the paper defers to
// future work against MACAW in the six-pad cell of Figure 3, both with all
// stations alive and with one pad switched off mid-run (the paper's stated
// worry: "frequent token hand-offs or recovery").
func ExtTokenVsMACAW(cfg RunConfig) Table {
	run := func(name string, f core.MACFactory, kill bool) *future[core.Results] {
		return goFuture(cfg, func() core.Results {
			l := topo.Figure3()
			n := cfg.spares.Network(cfg.Seed)
			rc := cfg.instrument(name, n)
			if err := l.Build(n, f); err != nil {
				panic(err)
			}
			if kill {
				n.PowerOff(n.Station("P6"), cfg.Warmup/2)
			}
			return rc.run(n)
		})
	}
	tokenF := core.TokenFactory(token.Options{Ring: core.RingOf(7)})
	macawF := core.MACAWFactory(macaw.DefaultOptions())
	tokenAlive := run("token", tokenF, false)
	macawAlive := run("MACAW", macawF, false)
	tokenDead := run("token, P6 dead", tokenF, true)
	macawDead := run("MACAW, P6 dead", macawF, true)
	return Table{
		ID: "ext-token", Figure: "figure3",
		Title:   "future work implemented: token passing vs MACAW, healthy and with a dead pad",
		Streams: streamNames(topo.Figure3()),
		Columns: []Column{
			{Name: "token", Results: tokenAlive.wait()},
			{Name: "MACAW", Results: macawAlive.wait()},
			{Name: "token, P6 dead", Results: tokenDead.wait()},
			{Name: "MACAW, P6 dead", Results: macawDead.wait()},
		},
		Notes: "token access is collision-free and exactly fair but pays hand-off overhead per rotation and recovery timeouts when members die",
	}
}

// Extensions returns the extension experiment generators.
func Extensions() []Generator {
	return []Generator{
		{"ext-ackschemes", "§4 acknowledgement alternatives", ExtAckSchemes},
		{"ext-carriersense", "§3.3.2 DS vs carrier sense", ExtCarrierSense},
		{"ext-leakage", "§3.4 backoff leakage (Figure 8)", ExtLeakage},
		{"ext-token", "future work: token passing vs MACAW", ExtTokenVsMACAW},
		{"ext-loadsweep", "offered load vs throughput and delay", ExtLoadSweep},
	}
}

// ExtLoadSweep produces the classic MAC evaluation curve the paper does not
// include: offered load vs carried load and delivery delay, for MACA, MACAW
// and the token scheme in a four-pad cell. Rows labelled "offered=N" carry
// throughput (pps); rows labelled "delay@N" carry the mean in-window
// delivery delay in milliseconds.
func ExtLoadSweep(cfg RunConfig) Table {
	rates := []float64{4, 8, 12, 16}
	protos := []struct {
		name string
		f    func() core.MACFactory
	}{
		{"MACA", func() core.MACFactory { return core.MACAFactory() }},
		{"MACAW", func() core.MACFactory { return core.MACAWFactory(macaw.DefaultOptions()) }},
		{"token", func() core.MACFactory { return core.TokenFactory(token.Options{Ring: core.RingOf(5)}) }},
	}
	var rows []string
	for _, r := range rates {
		rows = append(rows, fmt.Sprintf("offered=%gx4", r))
	}
	for _, r := range rates {
		rows = append(rows, fmt.Sprintf("delay@%gx4", r))
	}
	// One future per protocol x rate point, all submitted before any wait;
	// each yields the (carried load, mean delay) pair for that point.
	type point struct{ pps, delayMS float64 }
	futs := make([][]*future[point], len(protos))
	for pi, p := range protos {
		futs[pi] = make([]*future[point], len(rates))
		for ri, r := range rates {
			name, mk, r := p.name, p.f, r
			futs[pi][ri] = goFuture(cfg, func() point {
				n := cfg.spares.Network(cfg.Seed)
				rc := cfg.instrument(fmt.Sprintf("%s/offered=%gx4", name, r), n)
				f := mk()
				base := n.AddStation("B", geom.V(0, 0, 12), f)
				for i := 0; i < 4; i++ {
					pad := n.AddStation(fmt.Sprintf("P%d", i+1), geom.V(4-float64(2*i), 3, 6), f)
					n.AddStream(pad, base, core.UDP, r)
				}
				out := rc.run(n)
				var meanDelay float64
				var nd int
				for _, s := range out.Streams {
					if s.MeanDelay > 0 {
						meanDelay += s.MeanDelay.Seconds() * 1000
						nd++
					}
				}
				if nd > 0 {
					meanDelay /= float64(nd)
				}
				return point{pps: out.TotalPPS(), delayMS: meanDelay}
			})
		}
	}
	var cols []Column
	for pi, p := range protos {
		var res core.Results
		for ri, r := range rates {
			pt := futs[pi][ri].wait()
			res.Streams = append(res.Streams,
				core.StreamResult{Name: fmt.Sprintf("offered=%gx4", r), PPS: pt.pps},
				core.StreamResult{Name: fmt.Sprintf("delay@%gx4", r), PPS: pt.delayMS},
			)
		}
		cols = append(cols, Column{Name: p.name, Results: res})
	}
	return Table{
		ID: "ext-loadsweep", Figure: "single cell, 4 pads",
		Title:   "offered load vs carried load and mean delay (ms) per protocol",
		Streams: rows,
		Columns: cols,
		Notes:   "carried load should track offered load until the channel saturates (~45 pps for MACAW, ~52 for MACA, ~58 for token), then flatten while delay explodes",
	}
}
