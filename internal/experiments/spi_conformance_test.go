package experiments

// SPI conformance suite: every mac.Engine backend — csma, maca, macaw,
// token, dcf, tournament — must satisfy the contracts the rest of the repo
// builds on: deterministic replay, passive RunTo barriers, a byte-identical
// sweep-cell continuation at the delta barrier, liveness under the chaos
// fault classes (watchdog-swept), and a clean conformance-oracle audit.
// spiProtocols is the single source of truth for the backend set, so a seventh engine joins
// this suite by appearing there.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"macaw/internal/backoff"
	"macaw/internal/core"
	"macaw/internal/fault"
	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/mac/csma"
	"macaw/internal/mac/dcf"
	"macaw/internal/mac/macaw"
	"macaw/internal/mac/token"
	"macaw/internal/mac/tournament"
	"macaw/internal/metrics"
	"macaw/internal/sim"
	"macaw/internal/statecheck"
	"macaw/internal/topo"
	"macaw/internal/trace"
	"macaw/internal/transport"
)

// spiProtocols are the backends the suite sweeps: every protocol family in
// the repo.
var spiProtocols = []struct {
	name string
	f    func() core.MACFactory
}{
	{"MACA", func() core.MACFactory { return core.MACAFactory() }},
	{"MACAW", func() core.MACFactory { return core.MACAWFactory(macaw.DefaultOptions()) }},
	{"CSMA", func() core.MACFactory { return core.CSMAFactory(csma.Options{ACK: true}) }},
	{"token", func() core.MACFactory { return core.TokenFactory(token.Options{Ring: core.RingOf(3)}) }},
	{"DCF", func() core.MACFactory { return core.DCFFactory(dcf.Options{}) }},
	{"TOURN", func() core.MACFactory { return core.TournamentFactory(tournament.Options{}) }},
}

// addConformCell adds the suite's contended three-station cell to n.
func addConformCell(n *core.Network, f core.MACFactory) {
	b := n.AddStation("B", geom.V(0, 0, 12), f)
	p1 := n.AddStation("P1", geom.V(-4, 3, 6), f)
	p2 := n.AddStation("P2", geom.V(4, 3, 6), f)
	n.AddStream(p1, b, core.UDP, 30)
	n.AddStream(p2, b, core.UDP, 30)
	n.AddStream(b, p1, core.UDP, 10)
}

// conformNet builds the suite's cell directly (no instrumentation),
// exposing the network for state inventories.
func conformNet(seed int64, mk func() core.MACFactory) *core.Network {
	n := core.NewNetwork(seed)
	addConformCell(n, mk())
	return n
}

// spiRun builds the suite's cell and runs it through the instrument/run
// chokepoint — the same path the generators use, including audit.
func spiRun(cfg RunConfig, name string, mk func() core.MACFactory) core.Results {
	n := core.NewNetwork(cfg.Seed)
	rc := cfg.instrument(name, n)
	addConformCell(n, mk())
	return rc.run(n)
}

// barrierRun runs a freshly built network to the end, pausing at each
// barrier in order (no barriers means one uninterrupted Run), checks its
// audit, and renders its Results and final state inventory.
func barrierRun(n *core.Network, a audit, total, warmup sim.Duration, barriers ...sim.Time) string {
	var res core.Results
	if len(barriers) == 0 {
		res = n.Run(total, warmup)
	} else {
		n.Start(total, warmup)
		for _, b := range barriers {
			n.RunTo(b)
		}
		n.RunTo(n.End())
		res = n.Collect()
	}
	a.check()
	return fmt.Sprintf("%+v\n%s", res, statecheck.Dump(n))
}

// TestRunToBarriersArePassive pins the guarantee that warm-vs-cold sweep
// identity and the building workload's stepped slices rest on: a RunTo
// pause is not an event, so it cannot shift a sequence number or a
// tie-break. For every backend and 50 seeds (4 under -short), a run paused
// at two random barriers ends with the Results and final state inventory of
// an uninterrupted Run. Every run is audited. Two chaos cells put the
// barrier at 5 s, inside the crash downtime and mid burst trajectory, where
// the fault injector's schedule and Markov state are live.
func TestRunToBarriersArePassive(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 4
	}
	const total, warmup = 6 * sim.Second, 1 * sim.Second
	for _, p := range spiProtocols {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= int64(seeds); seed++ {
				cfg := RunConfig{Seed: seed, Audit: true}
				build := func() (*core.Network, audit) {
					n := core.NewNetwork(seed)
					a := cfg.newAudit(n)
					addConformCell(n, p.f())
					return n, a
				}
				// Two barriers anywhere inside (0, total), drawn
				// deterministically per (protocol, seed).
				rng := rand.New(rand.NewSource(seed<<8 + int64(len(p.name))))
				bs := []sim.Time{
					sim.Time(1 + rng.Int63n(int64(total)-2)),
					sim.Time(1 + rng.Int63n(int64(total)-2)),
				}
				sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
				n, a := build()
				want := barrierRun(n, a, total, warmup)
				n, a = build()
				if got := barrierRun(n, a, total, warmup, bs...); got != want {
					t.Fatalf("seed %d: run paused at %v diverges from the uninterrupted run", seed, bs)
				}
			}
		})
	}

	// The chaos cells span 2 s..12 s: the crash window opens at
	// warmup+span/4 = 4.5 s, and bursts run throughout.
	cfg := RunConfig{Total: 12 * sim.Second, Warmup: 2 * sim.Second, Seed: 1, Audit: true}
	faults := map[string]chaosFault{}
	for _, c := range chaosFaults(cfg) {
		faults[c.name] = c
	}
	for _, tc := range []struct {
		proto func() core.MACFactory
		name  string
		fault string
	}{
		{func() core.MACFactory { return core.MACAWFactory(macaw.DefaultOptions()) }, "MACAW", "crash"},
		{func() core.MACFactory { return core.MACAFactory() }, "MACA", "burst"},
	} {
		t.Run("chaos/"+tc.name+"/"+tc.fault, func(t *testing.T) {
			run := func(barriers ...sim.Time) string {
				n := core.NewNetwork(cfg.Seed)
				a := cfg.newAudit(n)
				buildChaosCell(n, tc.proto(), faults[tc.fault])
				return barrierRun(n, a, cfg.Total, cfg.Warmup, barriers...)
			}
			if run(5*sim.Second) != run() {
				t.Fatal("run paused mid-fault at 5 s diverges from the uninterrupted run")
			}
		})
	}
}

// TestCheckpointBarriersArePassive steps the paper scenarios the way a
// periodic driver does — a RunTo barrier every 3 s — and requires the
// Results and final state inventory of an uninterrupted Run: table 2's
// six-pad cell under both backoff variants, table 9's single-stream cell
// under MACA and MACAW, and the chaos cell under every fault class and both
// of its protocols. Every run is audited.
func TestCheckpointBarriersArePassive(t *testing.T) {
	cfg := RunConfig{Total: 12 * sim.Second, Warmup: 2 * sim.Second, Seed: 1, Audit: true}
	var every []sim.Time
	for b := sim.Time(3 * sim.Second); b < sim.Time(cfg.Total); b += 3 * sim.Second {
		every = append(every, b)
	}
	type cell struct {
		name  string
		build func(n *core.Network)
	}
	basic := macaw.Options{Exchange: macaw.Basic}
	table2 := func(strat func() backoff.Strategy) func(n *core.Network) {
		return func(n *core.Network) {
			if err := topo.Figure3().Build(n, variant(basic, singlePolicy(strat(), true))); err != nil {
				t.Fatal(err)
			}
		}
	}
	table9 := func(f func() core.MACFactory) func(n *core.Network) {
		return func(n *core.Network) {
			pad := n.AddStation("P", geom.V(-4, 0, 6), f())
			base := n.AddStation("B", geom.V(0, 0, 12), f())
			n.AddStream(pad, base, core.UDP, 64)
		}
	}
	cells := []cell{
		{"table2/BEB copy", table2(func() backoff.Strategy { return backoff.NewBEB() })},
		{"table2/MILD copy", table2(func() backoff.Strategy { return backoff.NewMILD() })},
		{"table9/MACA", table9(func() core.MACFactory { return core.MACAFactory() })},
		{"table9/MACAW", table9(func() core.MACFactory { return core.MACAWFactory(macaw.DefaultOptions()) })},
	}
	for _, c := range chaosFaults(cfg) {
		cells = append(cells,
			cell{"chaos/MACA/" + c.name, func(n *core.Network) { buildChaosCell(n, core.MACAFactory(), c) }},
			cell{"chaos/MACAW/" + c.name, func(n *core.Network) {
				buildChaosCell(n, core.MACAWFactory(macaw.DefaultOptions()), c)
			}})
	}
	for _, c := range cells {
		run := func(barriers ...sim.Time) string {
			n := core.NewNetwork(cfg.Seed)
			a := cfg.newAudit(n)
			c.build(n)
			return barrierRun(n, a, cfg.Total, cfg.Warmup, barriers...)
		}
		if run(every...) != run() {
			t.Errorf("%s: run stepped through barriers at %v diverges from the uninterrupted run", c.name, every)
		}
	}
}

// TestRestoreAtRandomTimes pins time-travel triage: restoring a run at time
// t is rerunning its seed with TraceFrom = t, because a run is a pure
// function of its configuration. For every backend and 20 seeds (4 under
// -short), the rerun's Results equal the full run's, and its trace is
// exactly the full run's trace from t on.
func TestRestoreAtRandomTimes(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	const total, warmup = 6 * sim.Second, 1 * sim.Second
	events := func(t *testing.T, s *trace.JSONLSink) []trace.Event {
		var buf bytes.Buffer
		if err := s.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		ev, err := trace.DecodeJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	for _, p := range spiProtocols {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= int64(seeds); seed++ {
				// One restore time anywhere inside (0, total), drawn
				// deterministically per (protocol, seed).
				rng := rand.New(rand.NewSource(seed<<8 + int64(len(p.name))))
				from := sim.Time(1 + rng.Int63n(int64(total)-2))

				full := RunConfig{Total: total, Warmup: warmup, Seed: seed, Audit: true, Trace: trace.NewJSONLSink()}
				re := full
				re.Trace, re.TraceFrom = trace.NewJSONLSink(), from
				want := spiRun(full, p.name, p.f)
				if got := spiRun(re, p.name, p.f); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
					t.Fatalf("seed %d: rerun restored at %v changes the results", seed, from)
				}
				if full.Trace.Dropped() != 0 || re.Trace.Dropped() != 0 {
					t.Fatalf("seed %d: trace cap dropped events", seed)
				}

				var tail []trace.Event
				for _, e := range events(t, full.Trace) {
					if e.At >= from {
						tail = append(tail, e)
					}
				}
				got := events(t, re.Trace)
				if len(got) == 0 {
					t.Fatalf("seed %d: rerun restored at %v recorded nothing", seed, from)
				}
				if !reflect.DeepEqual(got, tail) {
					t.Fatalf("seed %d: rerun restored at %v records %d events, the full run's tail has %d",
						seed, from, len(got), len(tail))
				}
			}
		})
	}
}

// TestSPIDeterministicReplay: two runs of the same seed produce byte-identical
// results and final state inventories, for every backend.
func TestSPIDeterministicReplay(t *testing.T) {
	const total, warmup = 3 * sim.Second, 1 * sim.Second
	for _, p := range spiProtocols {
		t.Run(p.name, func(t *testing.T) {
			run := func() (string, string) {
				n := conformNet(11, p.f)
				n.Start(total, warmup)
				n.RunTo(n.End())
				return fmt.Sprintf("%+v", n.Collect()), string(statecheck.Dump(n))
			}
			res1, st1 := run()
			res2, st2 := run()
			if res1 != res2 {
				t.Errorf("results differ across identical runs:\n %s\n %s", res1, res2)
			}
			if st1 != st2 {
				t.Error("final state inventories differ across identical runs")
			}
		})
	}
}

// TestSPIForkByteIdentity: the run chokepoint's sweep-cell shape — park at
// the warmup barrier, apply the delta, run the tail — continues
// byte-identically to the plain run when the delta restates the live
// setting, for every backend, audited. cw.min=15 is DCF's default lower
// window and retunes no other backend.
func TestSPIForkByteIdentity(t *testing.T) {
	const total, warmup = 3 * sim.Second, 1 * sim.Second
	for _, p := range spiProtocols {
		t.Run(p.name, func(t *testing.T) {
			run := func(delta *SweepVariant) string {
				cfg := RunConfig{Total: total, Warmup: warmup, Seed: 5, Audit: true, Delta: delta}
				n := core.NewNetwork(cfg.Seed)
				rc := cfg.instrument(p.name, n)
				addConformCell(n, p.f())
				res := rc.run(n)
				return fmt.Sprintf("%+v\n%s", res, statecheck.Dump(n))
			}
			want := run(nil)
			if got := run(&SweepVariant{Kind: "cw.min", Value: 15}); got != want {
				t.Error("the sweep-cell continuation diverges from the uninterrupted run")
			}
		})
	}
}

// TestSPIPacketDeadAfterCompletion pins the SPI's packet lifetime rule: once
// Sent or Dropped returns, the engine keeps no reference to the packet and
// reads none of its fields, so the host may recycle it (core does). Every
// backend runs a lossy cell with a crash and a restart twice: once with envs
// whose terminal callbacks overwrite the packet with garbage as they return,
// once with the same callbacks leaving it alone. Both runs must end with the
// same Results and final state inventory. The cell drives every completion
// path: retry-limit drops (all but token, which never retries), the Halt
// drain of the crashed station's queue, and the sends of the instance its
// restart builds.
func TestSPIPacketDeadAfterCompletion(t *testing.T) {
	const total, warmup = 6 * sim.Second, 1 * sim.Second
	type tally struct {
		sent  int
		drops map[mac.DropReason]int
	}
	for _, p := range spiProtocols {
		t.Run(p.name, func(t *testing.T) {
			run := func(poison bool) (string, tally) {
				tl := tally{drops: map[mac.DropReason]int{}}
				f := p.f()
				n := core.NewNetwork(13)
				n.Cfg.MaxRetries = 2
				addConformCell(n, func(env *mac.Env) mac.Engine {
					host := env.Callbacks
					env.Callbacks.Sent = func(pk *mac.Packet) {
						tl.sent++
						host.NotifySent(pk)
						if poison {
							poisonPacket(pk)
						}
					}
					env.Callbacks.Dropped = func(pk *mac.Packet, r mac.DropReason) {
						tl.drops[r]++
						host.NotifyDropped(pk, r)
						if poison {
							poisonPacket(pk)
						}
					}
					return f(env)
				})
				// DCF keeps its own 802.11 retry limits; the deltas
				// are no-ops for the other backends.
				for _, kind := range []string{"retry.short", "retry.long"} {
					if err := n.ApplyDelta(kind, 2); err != nil {
						t.Fatal(err)
					}
				}
				in := fault.NewInjector(n)
				in.AsymmetricLoss("P2", "B", 0.9)
				in.CrashRestart("P2", 3*sim.Second, 4*sim.Second)
				res := n.Run(total, warmup)
				if st := n.Station("P2"); st.Restarts() != 1 {
					t.Fatalf("P2 restarted %d times, want 1", st.Restarts())
				}
				return fmt.Sprintf("%+v\n%s", res, statecheck.Dump(n)), tl
			}
			want, clean := run(false)
			got, poisoned := run(true)
			if got != want {
				t.Fatal("poisoning completed packets changed the run: the engine touched a dead packet")
			}
			if !reflect.DeepEqual(poisoned, clean) {
				t.Fatalf("completions differ: poisoned %+v, clean %+v", poisoned, clean)
			}
			if clean.sent == 0 || clean.drops[mac.DropDisabled] == 0 {
				t.Fatalf("cell does not exercise sends and Halt drains: %+v", clean)
			}
			if p.name != "token" && clean.drops[mac.DropRetries] == 0 {
				t.Fatalf("cell does not exercise retry-limit drops: %+v", clean)
			}
		})
	}
}

// poisonPacket overwrites a completed packet with values no live packet
// carries.
func poisonPacket(p *mac.Packet) {
	*p = mac.Packet{Payload: []byte("dead packet!"), Size: -1, Enqueued: -1 << 40, Dst: 0x7ffe}
	p.SetSeq(0xdeadbeef)
}

// TestSPIAuditCleanOnSeedTraffic: the conformance oracle attached to every
// backend's contended run stays silent (a violation panics inside rc.run).
// The audited results must also match the unaudited ones — the oracle is
// passive for every engine, not just the original three.
func TestSPIAuditCleanOnSeedTraffic(t *testing.T) {
	cfg := Bench()
	cfg.Total, cfg.Warmup = 3*sim.Second, 1*sim.Second
	audited := cfg
	audited.Audit = true
	for _, p := range spiProtocols {
		t.Run(p.name, func(t *testing.T) {
			plain := spiRun(cfg, "spi/"+p.name, p.f)
			got := spiRun(audited, "spi/"+p.name, p.f)
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", plain) {
				t.Errorf("audit perturbed the run:\n plain %+v\n audit %+v", plain, got)
			}
		})
	}
}

// TestSPIWatchdogLivenessUnderChaos: each backend survives every PR 2 fault
// class — burst loss, asymmetric links, crash/restart, mobility — with the
// FSM liveness watchdog attached (a wedged engine or runaway queue panics)
// and still carries traffic.
func TestSPIWatchdogLivenessUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	const total, warmup = 8 * sim.Second, 2 * sim.Second
	span := sim.Duration(total - warmup)
	down := span / 16
	if down < fault.MinDowntime {
		down = fault.MinDowntime
	}
	classes := []struct {
		name  string
		apply func(in *fault.Injector)
	}{
		{"burst", func(in *fault.Injector) {
			in.BurstChannel(0, 0.85, 200*sim.Millisecond, 40*sim.Millisecond)
		}},
		{"asym", func(in *fault.Injector) {
			in.AsymmetricLoss("P1", "B", 0.6)
		}},
		{"crash", func(in *fault.Injector) {
			at := sim.Time(warmup) + sim.Time(span/4)
			in.CrashRestart("B", at, at+sim.Time(down))
		}},
		{"walk", func(in *fault.Injector) {
			in.Walk("P2", sim.Time(warmup)+sim.Time(span/4), span/16,
				geom.V(4, 3, 6), geom.V(8, 3, 6), geom.V(4, 3, 6))
		}},
	}
	for _, p := range spiProtocols {
		for _, c := range classes {
			t.Run(p.name+"/"+c.name, func(t *testing.T) {
				n := conformNet(9, p.f)
				in := fault.NewInjector(n)
				c.apply(in)
				w := fault.NewWatchdog(n)
				w.MaxQueue = 256
				w.Start(0)
				n.Start(total, warmup)
				n.RunTo(n.End()) // a wedge panics via the watchdog
				res := n.Collect()
				if res.TotalPPS() <= 0 {
					t.Errorf("no traffic carried under %s", c.name)
				}
			})
		}
	}
}

// observerPins are the SHA-256 digests of every backend's metrics document
// and trace JSONL in TestSPIObserverStreamsPinned: first the plain
// contended cell, then the lossy cell with a crash and a restart.
var observerPins = map[string][4]string{
	"MACA": {
		"d2704b9ae47782e95b008b92439e3bc91a60207ef3efc80fb1cefd4abce1198e",
		"3cc7cfeb72958c7ff64ef0a0338fad4c2f73b702a3288f513ee2ee2a97ca6596",
		"525cdec9d2e7c99238a0c4f13c4110ff7376324fdede74fccfc03cb729e4efd6",
		"57682dac05aabbb49fbd3a0e887f9e72ef86824eb3dcc3b1de579c29ec2ba1b6",
	},
	"MACAW": {
		"8f24ed41cd3356657f9f0007a37f0cb8a701d079c203ee399b75039308ff6c6f",
		"b0f55e9673d900b61dd22591b89281e6f2348f2264a7d10c77a495826627a932",
		"0bbce90df13307acde8526835bf82893aa39d507c5d531318e5ae55ab363e56b",
		"211815e63247da0f9a45173b0b9182ad599ce3249733f2907888942c4313a0c6",
	},
	"CSMA": {
		"314c24f931b02a48b494db5202e71c718950c45ecd04258aa5faae613ef9005c",
		"86a5b95ad354f70f0de694b47d422905705134bc8c39f97fc2055c2b2ac9c642",
		"2a8b2f90ab5f4bfa1a58162c8634f3aad47950d620c8f16fb774bfaea5f30e99",
		"16b0bfa2939c2c6b16dd165beb26ed1323856db7aa43ef4a0e94b79a257ce79e",
	},
	"token": {
		"7fa1b0dafb097aacc3da1c8cf036a4c2ef2b54f23837ff4fa541e0095aaa714c",
		"2d51939d7afbade796f4d7dbc2403e7013ca8b17acc0da2e84932dbd1fbbcc14",
		"f4da4bb80f82308d49aa8445604ad4fcb93831182995c158ca26ba9a6595791a",
		"1276c5ae1331b5293e4fb0936429db9d2c69cc9927dca2ec7bcb5e8b08a0a032",
	},
	"DCF": {
		"f2de7fe545e0002356393345aa85e86071d672c042f529ed6f0beca82f00a376",
		"01ac9ed6f03b03ec77e3cffa0d34b1bdff78aa5ebaa6e4ed5c18bf2b14bb08bb",
		"0afad05f94cb6e2d8a36d550563900bd475f1b5f1daf5836609ac084e83b2070",
		"84f38617116b73b82decef15040a290584c5ed77c73123562a44a11b222de2ac",
	},
	"TOURN": {
		"5c2c43f49d455c1aebbbb29f8d6a557f97466541713343c314772a3d2d5f4240",
		"efad4be1539257c7c727b7ae0747fabd61e32e8387d3947b3ea505d82d52a43a",
		"2af29aa0d869df150313a09c3a13fa8edadebde42280d3e11141911b4c9b4932",
		"bf446baa76c0a3677f49d7d41b2334dc789ed6dc0220480b60233c29f064b356",
	},
}

// TestSPIObserverStreamsPinned pins every backend's observer streams byte
// for byte: the -metrics document and the -tracejson JSONL of an audited
// run of the suite's contended cell, and of the same cell made lossy, with
// a tight retry limit and a crash/restart, so retry-limit drops and Halt
// drains reach the observers too. The golden tables pin what the engines
// do; these digests pin what they report, hook by hook and in order.
func TestSPIObserverStreamsPinned(t *testing.T) {
	var traced bytes.Buffer
	digests := func(cfg RunConfig) (string, string) {
		var m bytes.Buffer
		tr := &traced
		tr.Reset()
		if err := cfg.Metrics.WriteJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Trace.WriteJSONL(tr); err != nil {
			t.Fatal(err)
		}
		if cfg.Trace.Dropped() != 0 {
			t.Fatal("trace cap dropped events")
		}
		return fmt.Sprintf("%x", sha256.Sum256(m.Bytes())), fmt.Sprintf("%x", sha256.Sum256(tr.Bytes()))
	}
	for _, p := range spiProtocols {
		t.Run(p.name, func(t *testing.T) {
			var got [4]string
			cfg := RunConfig{Total: 3 * sim.Second, Warmup: 1 * sim.Second, Seed: 1, Audit: true,
				Metrics: metrics.NewSink(), Trace: trace.NewJSONLSink()}
			spiRun(cfg, p.name, p.f)
			got[0], got[1] = digests(cfg)

			cfg = RunConfig{Total: 6 * sim.Second, Warmup: 1 * sim.Second, Seed: 13, Audit: true,
				Metrics: metrics.NewSink(), Trace: trace.NewJSONLSink()}
			n := core.NewNetwork(cfg.Seed)
			n.Cfg.MaxRetries = 2
			rc := cfg.instrument(p.name, n)
			addConformCell(n, p.f())
			for _, kind := range []string{"retry.short", "retry.long"} {
				if err := n.ApplyDelta(kind, 2); err != nil {
					t.Fatal(err)
				}
			}
			in := fault.NewInjector(n)
			in.AsymmetricLoss("P2", "B", 0.9)
			in.CrashRestart("P2", 3*sim.Second, 4*sim.Second)
			rc.run(n)
			got[2], got[3] = digests(cfg)
			for _, r := range []mac.DropReason{mac.DropRetries, mac.DropDisabled} {
				if r == mac.DropRetries && p.name == "token" {
					continue // token never retries
				}
				if !bytes.Contains(traced.Bytes(), []byte(string(r))) {
					t.Errorf("lossy cell traced no %q drop", r)
				}
			}

			if want := observerPins[p.name]; got != want {
				t.Errorf("observer streams drifted:\n got  %q\n want %q", got, want)
			}
		})
	}
}

// offerKey names one offer: the sending and receiving station and the
// transport seq.
type offerKey struct {
	src, dst frame.NodeID
	seq      uint32
}

// offerTap wraps an engine, noting when each transport segment is offered
// to it.
type offerTap struct {
	mac.Engine
	env *mac.Env
	at  map[offerKey]sim.Time
}

func (o *offerTap) Enqueue(p *mac.Packet) {
	if seg, err := transport.UnmarshalSegment(p.Payload); err == nil {
		o.at[offerKey{o.env.ID(), p.Dst, seg.Seq}] = o.env.Sim.Now()
	}
	o.Engine.Enqueue(p)
}

// TestEachDelayMatchesArrivalOrder: a stream folds each in-window delay
// into its offer's slot and EachDelay reads them back in seq order, which
// holds only while in-window deliveries arrive in rising seq. On every
// backend, in the suite's contended cell and in the lossy cell with a
// crash and a restart, the delays taken independently in arrival order
// (offer time from the MAC's Enqueue, arrival from the receiving
// station) must equal the EachDelay sequence.
func TestEachDelayMatchesArrivalOrder(t *testing.T) {
	const warmup = 1 * sim.Second
	for _, p := range spiProtocols {
		t.Run(p.name, func(t *testing.T) {
			for _, lossy := range []bool{false, true} {
				offered := make(map[offerKey]sim.Time)
				inner := p.f()
				n := core.NewNetwork(1)
				total := 3 * sim.Second
				if lossy {
					n = core.NewNetwork(13)
					n.Cfg.MaxRetries = 2
					total = 6 * sim.Second
				}
				addConformCell(n, func(env *mac.Env) mac.Engine {
					return &offerTap{Engine: inner(env), env: env, at: offered}
				})
				if lossy {
					for _, kind := range []string{"retry.short", "retry.long"} {
						if err := n.ApplyDelta(kind, 2); err != nil {
							t.Fatal(err)
						}
					}
					in := fault.NewInjector(n)
					in.AsymmetricLoss("P2", "B", 0.9)
					in.CrashRestart("P2", 3*sim.Second, 4*sim.Second)
				}
				arrived := make(map[offerKey][]sim.Duration)
				for _, st := range n.Stations() {
					st.Handle(func(src frame.NodeID, seg transport.Segment) {
						k := offerKey{src, st.ID(), seg.Seq}
						if at, ok := offered[k]; ok && seg.Kind == transport.KindData {
							delete(offered, k)
							if now := n.Sim.Now(); now >= warmup {
								k.seq = 0
								arrived[k] = append(arrived[k], now-at)
							}
						}
					})
				}
				n.Run(total, warmup)
				compared := 0
				for _, s := range n.Streams() {
					var folded []sim.Duration
					s.EachDelay(func(d sim.Duration) { folded = append(folded, d) })
					want := arrived[offerKey{s.From.ID(), s.To.ID(), 0}]
					compared += len(want)
					if !reflect.DeepEqual(folded, want) || s.NumDelays() != len(want) {
						t.Errorf("lossy=%v %s: EachDelay gave %d delays %v,\nwant the %d in arrival order %v",
							lossy, s.Name, s.NumDelays(), folded, len(want), want)
					}
				}
				if compared == 0 {
					t.Errorf("lossy=%v: no in-window deliveries to compare", lossy)
				}
			}
		})
	}
}
