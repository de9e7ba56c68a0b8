package core

import (
	"fmt"
	"slices"
	"sync"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/phy"
	"macaw/internal/sim"
)

// This file implements the spatially-sharded parallel runner. Its users are
// city-scale buildings (the bench city workload and BenchmarkScaleN10000);
// the paper's tables never reach it, since each of their layouts is one
// radio component. City-scale buildings of nanocells produce radio
// topologies that fall apart into many components under the medium's
// negligibility certificate (phy.Params.IndexCutoff): two stations farther
// apart than the cutoff have a stored gain of exactly 0.0, in both
// directions, for the entire run. Such components are causally disconnected
// at the physical layer — no carrier, no capture, no reception crosses the
// gap — so their event histories commute exactly and can execute on
// separate event heaps in separate goroutines.
//
// The determinism contract is bit-identity, not statistical equivalence:
// Results at any shard count are byte-for-byte the serial engine's. Three
// mechanisms carry the proof:
//
//  1. Gain exactness. Cross-component gain terms are stored as exact zeros
//     (the PR 3 floor), so every float fold (carrier power, interference
//     sums) in a component network equals the monolithic fold restricted to
//     the component — adding exact zeros is the identity.
//  2. Event-order restriction. The simulator orders events by (time,
//     priority, seq). Within one component all scheduling is triggered by
//     the component's own events, so the relative order of its events in
//     the monolithic run equals their order in the component-local run.
//  3. Stream and id injection. Every random generator and identifier the
//     monolithic run would hand out is reproduced exactly: station i
//     (0-based) draws simulator stream i+2, traffic stream j draws
//     S+2+j (S = total stations), node ids and stream ids are the global
//     ones. sim.SetNextStream and in-package counter injection position
//     each component network to deal the identical values.
//
// Mergeability follows: per-stream results are placed back by global stream
// index, medium counters are integer sums over disjoint event sets, and the
// observer that keeps bit-identity outright (the conformance oracle) is
// per-station and passive. Observers whose output depends on global event
// interleaving (trace emission order, the metrics high-water queue depth)
// cannot be merged into the monolithic run's document.

// BlueprintStation declares one station of a Blueprint.
type BlueprintStation struct {
	Name    string
	Pos     geom.Vec3
	Factory MACFactory
}

// BlueprintStream declares one unidirectional stream between stations
// identified by index into Blueprint.Stations.
type BlueprintStream struct {
	From, To int
	Kind     TransportKind
	Rate     float64
	Start    sim.Duration
}

// Blueprint is a declarative description of a network — the complete input
// the sharded runner needs to rebuild any subset of the building with
// bit-identical identities and random streams. Construction order is the
// canonical one (all stations in index order, then all streams in index
// order), matching what topo.Layout.Build produces on a monolithic network.
//
// Factories are invoked from shard goroutines when shards > 1, so they must
// be safe for concurrent use (every factory in this package is: each call
// builds fresh per-station state). Factories must draw randomness only from
// the prepared mac.Env, never from the simulator directly — an extra
// simulator stream would shift the global stream accounting the injection
// reproduces.
type Blueprint struct {
	Seed     int64
	Stations []BlueprintStation
	Streams  []BlueprintStream

	// Instrument, when non-nil, attaches passive observers to each network
	// the runner materializes (one per component when sharded, one total
	// when serial). It runs before any station is added, receiving the
	// component's global index (-1 on the serial path, where the network
	// holds the whole building); the returned finish hook (may be nil)
	// runs after that network's Run completes, receiving that network's
	// Results. When shards > 1 both the hook and its finish run on shard
	// goroutines, concurrently with other components' hooks — shared
	// state inside them must be synchronized. Per-station,
	// interleaving-independent observers (the conformance oracle) keep
	// the bit-identity contract outright; a per-heap observer (metrics
	// queue depths, trace order) sees only its component's heap, so its
	// output does not match the monolithic run's. When sharded, a
	// component network is released once its finish hook returns (see
	// Run): neither the hook nor anything it keeps may read the network
	// or draw from its random streams afterwards.
	Instrument func(n *Network, comp int) func(Results)

	// Verify, when non-nil, checks each materialized network after
	// construction (e.g. topo hearing relations). It must tolerate
	// networks holding only a subset of the stations: when sharded, each
	// component network contains just its own stations.
	Verify func(*Network) error
}

// ShardInfo reports how a Blueprint.Run executed.
type ShardInfo struct {
	// Cutoff is the certified interaction radius in feet (0 when no
	// certificate exists).
	Cutoff float64
	// Components is the number of causally independent radio components.
	Components int
	// Workers is the number of goroutines the run used (1 = serial path).
	Workers int
}

// Partition labels each station with its causal-component index and reports
// the certified cutoff. Two stations share a component iff they are linked
// by a chain of station-to-station hops of at most the cutoff, with stream
// endpoints additionally folded together (a stream couples its stations
// through the transport layer even if their radios were out of range). ok
// is false when the physics cannot certify a cutoff — then everything must
// be assumed coupled and the labels are all zero.
func (bp Blueprint) Partition() (labels []int, count int, cutoff float64, ok bool) {
	n := len(bp.Stations)
	if n == 0 {
		return []int{}, 0, 0, false
	}
	cutoff, ok = phy.DefaultParams().IndexCutoff()
	if !ok {
		return make([]int, n), 1, 0, false
	}
	pts := make([]geom.Vec3, n)
	for i, s := range bp.Stations {
		pts[i] = s.Pos
	}
	links := make([][2]int, len(bp.Streams))
	for j, s := range bp.Streams {
		links[j] = [2]int{s.From, s.To}
	}
	labels, count = geom.Components(pts, cutoff, links)
	return labels, count, cutoff, true
}

// materialize builds a network holding the given station and stream subsets
// (global indices, ascending). With inject set, every identity the
// monolithic run would assign — node id, stream id, simulator random
// stream — is positioned explicitly before each entity is added, so the
// subset network deals out exactly the values the full building would.
// The network takes over the storage released to sp (nil builds a fresh
// one) before any station is added.
func (bp Blueprint) materialize(stIdx, strIdx []int, inject bool, comp int, sp *Spares) (*Network, func(Results), error) {
	n := sp.Network(bp.Seed)
	var finish func(Results)
	if bp.Instrument != nil {
		finish = bp.Instrument(n, comp)
	}
	total := int64(len(bp.Stations))
	first := len(n.stations)
	for _, i := range stIdx {
		spec := bp.Stations[i]
		if inject {
			n.nextID = frame.NodeID(i + 1)
			// Station i's MAC environment is simulator stream i+2:
			// stream 1 went to the medium at NewNetwork.
			n.Sim.SetNextStream(int64(i) + 2)
		}
		n.AddStation(spec.Name, spec.Pos, spec.Factory)
	}
	// local returns the station added for global index i, found by
	// bisection in the ascending stIdx, or nil.
	local := func(i int) *Station {
		if k, ok := slices.BinarySearch(stIdx, i); ok {
			return n.stations[first+k]
		}
		return nil
	}
	for _, j := range strIdx {
		spec := bp.Streams[j]
		from, to := local(spec.From), local(spec.To)
		if from == nil || to == nil {
			return nil, nil, fmt.Errorf("core: stream %d references a station outside its component", j)
		}
		if inject {
			// AddStream pre-increments, so position one below the
			// global stream id j+1. The CBR generator draws simulator
			// stream S+2+j: the monolithic run hands out all S station
			// streams first.
			n.nextSID = uint16(j)
			n.Sim.SetNextStream(total + 2 + int64(j))
		}
		st := n.AddStream(from, to, spec.Kind, spec.Rate)
		st.SetStart(spec.Start)
	}
	if bp.Verify != nil {
		if err := bp.Verify(n); err != nil {
			return nil, nil, err
		}
	}
	return n, finish, nil
}

// members returns each of the count components' stations and streams
// under Partition's labels, in ascending global index order.
func (bp Blueprint) members(labels []int, count int) (stations, streams [][]int) {
	stations, streams = make([][]int, count), make([][]int, count)
	for i, l := range labels {
		stations[l] = append(stations[l], i)
	}
	for j, s := range bp.Streams {
		streams[labels[s.From]] = append(streams[labels[s.From]], j)
	}
	return stations, streams
}

// Run simulates the blueprint for total seconds (measuring from warmup) on
// up to shards parallel event heaps and returns results byte-identical to
// the serial engine's. shards <= 1, an uncertified physics, or a building
// that is one connected component all fall back to the serial path — the
// exact construction sequence a monolithic Build performs.
//
// On the sharded path each worker runs its components one after another
// through a Spares of its own, and a component network lives until its
// Run and its Instrument finish hook have both returned. The worker then
// releases it, and the next component it materializes is built in its
// record before any station is added: it seeds its random streams into
// the finished one's generators instead of allocating its own, schedules
// into its event slab and heap, takes its packets and offer words, and
// rebuilds its station, stream and MAC engine records in place.
// Every stream of the finished network panics on a later draw, as does
// scheduling on it or running it. The serial path builds one network and
// recycles nothing.
func (bp Blueprint) Run(total, warmup sim.Duration, shards int) (Results, ShardInfo, error) {
	labels, count, cutoff, certified := bp.Partition()
	info := ShardInfo{Cutoff: cutoff, Components: count, Workers: 1}
	if shards <= 1 || !certified || count <= 1 {
		all := make([]int, len(bp.Stations))
		for i := range all {
			all[i] = i
		}
		allStreams := make([]int, len(bp.Streams))
		for j := range allStreams {
			allStreams[j] = j
		}
		n, finish, err := bp.materialize(all, allStreams, false, -1, nil)
		if err != nil {
			return Results{}, info, err
		}
		res := n.Run(total, warmup)
		if finish != nil {
			finish(res)
		}
		return res, info, nil
	}

	comps, compStreams := bp.members(labels, count)

	// Each component is keyed to a shard by the grid cell of its first
	// station at cell size = cutoff — a deterministic function of the
	// blueprint alone. The assignment balances load across workers; it
	// cannot affect output, which is merged by global index.
	workers := shards
	if count < workers {
		workers = count
	}
	info.Workers = workers
	groups := make([][]int, workers)
	for c := range comps {
		anchor := geom.CellOf(bp.Stations[comps[c][0]].Pos, cutoff)
		s := geom.ShardOfCell(anchor, workers)
		groups[s] = append(groups[s], c)
	}

	type compResult struct {
		res Results
		err error
		pan any
	}
	out := make([]compResult, count)
	var wg sync.WaitGroup
	for _, list := range groups {
		wg.Add(1)
		go func(list []int) {
			defer wg.Done()
			// sp holds what the worker's finished components released:
			// their runs and finish hooks have returned, so the next
			// component takes over their storage.
			var sp Spares
			for _, c := range list {
				out[c] = func() (r compResult) {
					defer func() {
						if p := recover(); p != nil {
							r.pan = p
						}
					}()
					n, finish, err := bp.materialize(comps[c], compStreams[c], true, c, &sp)
					if err != nil {
						r.err = err
						return
					}
					r.res = n.Run(total, warmup)
					if finish != nil {
						finish(r.res)
					}
					n.Release()
					return
				}()
			}
		}(list)
	}
	wg.Wait()

	// Surface failures in component order so the report is deterministic.
	for c := range out {
		if out[c].pan != nil {
			panic(out[c].pan)
		}
		if out[c].err != nil {
			return Results{}, info, out[c].err
		}
	}

	merged := Results{
		Streams:  make([]StreamResult, len(bp.Streams)),
		Duration: total,
		Warmup:   warmup,
	}
	for c := range out {
		for k, j := range compStreams[c] {
			merged.Streams[j] = out[c].res.Streams[k]
		}
		m := out[c].res.Medium
		merged.Medium.Transmissions += m.Transmissions
		merged.Medium.Delivered += m.Delivered
		merged.Medium.Corrupted += m.Corrupted
		merged.Medium.NoiseDropped += m.NoiseDropped
		merged.Medium.Aborted += m.Aborted
	}
	return merged, info, nil
}
