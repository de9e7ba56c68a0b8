package core_test

// Differential tests for the sharded runner's determinism contract: at any
// shard count, Results — and their rendered table — must be byte-identical
// to the serial engine's. The test topology is a miniature "city": several
// well-separated clusters (each its own radio component under the default
// 60 dB negligibility certificate, cutoff ≈ 102 ft) so the sharded path
// genuinely exercises parallel component execution and canonical merging.

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"macaw/internal/core"
	"macaw/internal/geom"
	"macaw/internal/mac/macaw"
	"macaw/internal/oracle"
	"macaw/internal/sim"
	"macaw/internal/topo"
)

// cityLayout builds nClusters single-cell clusters on a coarse grid with
// 400 ft pitch — far beyond the certified cutoff — each holding one base
// and three pads with upstream UDP streams. Stream declaration order
// interleaves clusters, so the merge must reorder component results back
// into global order to pass.
func cityLayout(nClusters int) topo.Layout {
	l := topo.Layout{Name: fmt.Sprintf("city-%d", nClusters)}
	for c := 0; c < nClusters; c++ {
		ox := float64(c%4) * 400
		oy := float64(c/4) * 400
		l.Stations = append(l.Stations, topo.StationSpec{
			Name: fmt.Sprintf("B%d", c+1), Pos: geom.V(ox, oy, 12), Base: true,
		})
		for p := 0; p < 3; p++ {
			ang := 2 * math.Pi * float64(p) / 3
			l.Stations = append(l.Stations, topo.StationSpec{
				Name: fmt.Sprintf("C%dP%d", c+1, p+1),
				Pos:  geom.V(ox+5*math.Cos(ang), oy+5*math.Sin(ang), 6),
			})
		}
	}
	// Interleaved stream order: pad p of every cluster, then pad p+1, so
	// consecutive global stream indices belong to different components.
	for p := 0; p < 3; p++ {
		for c := 0; c < nClusters; c++ {
			l.Streams = append(l.Streams, topo.StreamSpec{
				From: fmt.Sprintf("C%dP%d", c+1, p+1),
				To:   fmt.Sprintf("B%d", c+1),
				Kind: core.UDP, Rate: 24,
				StartSec: 0.1 * float64(c+p),
			})
		}
	}
	// Pin some relations so the Verify hook exercises both the in-component
	// check and the split-across-components skip.
	for c := 0; c < nClusters; c++ {
		l.Relations = append(l.Relations,
			topo.Relation{A: fmt.Sprintf("C%dP1", c+1), B: fmt.Sprintf("B%d", c+1), Hears: true})
		if c > 0 {
			l.Relations = append(l.Relations,
				topo.Relation{A: fmt.Sprintf("C%dP1", c+1), B: "B1", Hears: false})
		}
	}
	return l
}

func cityBlueprint(t *testing.T, nClusters int, seed int64) core.Blueprint {
	t.Helper()
	bp, err := cityLayout(nClusters).Blueprint(core.MACAWFactory(macaw.Options{}))
	if err != nil {
		t.Fatalf("blueprint: %v", err)
	}
	bp.Seed = seed
	return bp
}

// TestShardedRunBitIdentical is the acceptance-criteria differential test:
// shards 1/2/3/4/8 all produce Results that are deeply equal — including
// every float bit — and render to identical bytes.
func TestShardedRunBitIdentical(t *testing.T) {
	const total, warmup = 8 * sim.Second, 1 * sim.Second
	bp := cityBlueprint(t, 6, 42)

	serial, info, err := bp.Run(total, warmup, 1)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if info.Workers != 1 {
		t.Fatalf("serial run used %d workers", info.Workers)
	}
	if serial.TotalPPS() <= 0 {
		t.Fatal("serial run delivered nothing; test topology is inert")
	}
	for _, shards := range []int{2, 3, 4, 8} {
		got, gotInfo, err := bp.Run(total, warmup, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if gotInfo.Components != 6 {
			t.Fatalf("shards=%d: %d components, want 6", shards, gotInfo.Components)
		}
		if gotInfo.Workers < 2 {
			t.Fatalf("shards=%d: ran with %d workers, parallel path not taken", shards, gotInfo.Workers)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("shards=%d: results differ from serial\nserial:\n%v\nsharded:\n%v",
				shards, serial, got)
		}
		if serial.String() != got.String() {
			t.Fatalf("shards=%d: rendered tables differ", shards)
		}
	}
}

// TestShardedRunAuditedStaysIdentical attaches the conformance oracle via
// the Instrument hook on every materialized network: auditing must neither
// perturb results nor fire false violations on component networks.
func TestShardedRunAuditedStaysIdentical(t *testing.T) {
	const total, warmup = 6 * sim.Second, 1 * sim.Second
	bare := cityBlueprint(t, 4, 7)
	serial, _, err := bare.Run(total, warmup, 1)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}

	audited := cityBlueprint(t, 4, 7)
	var finished atomic.Int32 // hooks run on shard goroutines
	audited.Instrument = func(n *core.Network, comp int) func(core.Results) {
		o := oracle.New(audited.Seed)
		o.Attach(n)
		return func(core.Results) {
			finished.Add(1)
			if err := o.Err(); err != nil {
				t.Errorf("oracle violation on component network: %v", err)
			}
		}
	}
	got, info, err := audited.Run(total, warmup, 4)
	if err != nil {
		t.Fatalf("audited sharded run: %v", err)
	}
	if info.Components != 4 {
		t.Fatalf("components = %d, want 4", info.Components)
	}
	if finished.Load() != 4 {
		t.Fatalf("finish hook ran %d times, want once per component", finished.Load())
	}
	if !reflect.DeepEqual(serial, got) {
		t.Fatalf("audited sharded results differ from bare serial\nserial:\n%v\naudited:\n%v",
			serial, got)
	}
}

// TestBlueprintSerialMatchesBuild pins that the shards=1 path is the
// existing engine: building the same layout by hand on a monolithic
// network yields deeply equal Results.
func TestBlueprintSerialMatchesBuild(t *testing.T) {
	const total, warmup = 6 * sim.Second, 1 * sim.Second
	l := cityLayout(3)
	f := core.MACAWFactory(macaw.Options{})

	n := core.NewNetwork(11)
	if err := l.Build(n, f); err != nil {
		t.Fatalf("build: %v", err)
	}
	want := n.Run(total, warmup)

	bp, err := l.Blueprint(f)
	if err != nil {
		t.Fatalf("blueprint: %v", err)
	}
	bp.Seed = 11
	got, _, err := bp.Run(total, warmup, 1)
	if err != nil {
		t.Fatalf("blueprint run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("blueprint serial run differs from monolithic Build\nbuild:\n%v\nblueprint:\n%v",
			want, got)
	}
}

// TestPartitionTotalDeterministic checks the partition itself: a total
// labeling, stable across calls, that separates far clusters and folds
// stream endpoints into one component.
func TestPartitionTotalDeterministic(t *testing.T) {
	bp := cityBlueprint(t, 5, 1)
	labels, count, cutoff, ok := bp.Partition()
	if !ok {
		t.Fatal("default physics must certify a cutoff")
	}
	if cutoff <= 0 {
		t.Fatalf("cutoff = %v", cutoff)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5 (one per cluster)", count)
	}
	if len(labels) != len(bp.Stations) {
		t.Fatalf("%d labels for %d stations", len(labels), len(bp.Stations))
	}
	labels2, count2, _, _ := bp.Partition()
	if count2 != count || !reflect.DeepEqual(labels, labels2) {
		t.Fatal("partition is not deterministic across calls")
	}
	// 4 stations per cluster, declared cluster-by-cluster; labels are
	// first-occurrence normalized, so station i belongs to component i/4.
	for i, l := range labels {
		if l != i/4 {
			t.Fatalf("station %d labeled %d, want %d", i, l, i/4)
		}
	}
	// A stream coupling two otherwise-disjoint clusters folds them.
	coupled := bp
	coupled.Streams = append([]core.BlueprintStream{}, bp.Streams...)
	coupled.Streams = append(coupled.Streams, core.BlueprintStream{
		From: 0, To: 4 * 4, Kind: core.UDP, Rate: 1,
	})
	_, countC, _, _ := coupled.Partition()
	if countC != 4 {
		t.Fatalf("stream-coupled partition has %d components, want 4", countC)
	}
}

// TestShardedRunSeedSensitivity guards against the component networks
// accidentally sharing or reusing random streams: different seeds must
// produce different results through the sharded path (and identical seeds
// identical results, which the bit-identity test already covers).
func TestShardedRunSeedSensitivity(t *testing.T) {
	const total, warmup = 6 * sim.Second, 1 * sim.Second
	a := cityBlueprint(t, 4, 3)
	b := cityBlueprint(t, 4, 4)
	ra, _, err := a.Run(total, warmup, 4)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := b.Run(total, warmup, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ra, rb) {
		t.Fatal("different seeds produced identical sharded results")
	}
}

// workerLoads counts the components the sharded engine assigns to each of
// workers shard workers: by the grid cell of each component's first
// station at cell size = cutoff.
func workerLoads(t *testing.T, bp core.Blueprint, workers int) []int {
	t.Helper()
	labels, _, cutoff, ok := bp.Partition()
	if !ok {
		t.Fatal("default physics must certify a cutoff")
	}
	loads := make([]int, workers)
	seen := make(map[int]bool)
	for i, l := range labels {
		if !seen[l] {
			seen[l] = true
			loads[geom.ShardOfCell(geom.CellOf(bp.Stations[i].Pos, cutoff), workers)]++
		}
	}
	return loads
}

// TestShardedRecyclingBitIdentical runs enough components per worker that
// every worker hands its random generators on at least twice: at shards 2,
// bare and with the audited Instrument hook, Results must stay deeply equal
// to serial.
func TestShardedRecyclingBitIdentical(t *testing.T) {
	const total, warmup = 4 * sim.Second, 1 * sim.Second
	bp := cityBlueprint(t, 16, 23)
	for w, load := range workerLoads(t, bp, 2) {
		if load < 3 {
			t.Fatalf("worker %d runs %d components, want at least 3", w, load)
		}
	}
	serial, _, err := bp.Run(total, warmup, 1)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	bare, _, err := bp.Run(total, warmup, 2)
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if !reflect.DeepEqual(serial, bare) {
		t.Fatalf("sharded results differ from serial\nserial:\n%v\nsharded:\n%v", serial, bare)
	}

	audited := bp
	audited.Instrument = func(n *core.Network, comp int) func(core.Results) {
		o := oracle.New(audited.Seed)
		o.Attach(n)
		return func(core.Results) {
			if err := o.Err(); err != nil {
				t.Errorf("oracle violation on component %d: %v", comp, err)
			}
		}
	}
	got, _, err := audited.Run(total, warmup, 2)
	if err != nil {
		t.Fatalf("audited sharded run: %v", err)
	}
	if !reflect.DeepEqual(serial, got) {
		t.Fatalf("audited sharded results differ from serial\nserial:\n%v\naudited:\n%v", serial, got)
	}
}

// generatorAllocs reports what run allocates in random generators — the
// sim.Source objects sim.NewSource builds — from a memory profile sampling
// every allocation.
func generatorAllocs(run func()) (bytes, objects int64) {
	return profiledAllocs(run, func(frames *runtime.Frames) bool {
		for {
			f, more := frames.Next()
			if f.Function == "macaw/internal/sim.NewSource" {
				return true
			}
			if !more {
				return false
			}
		}
	})
}

// simAllocs reports what run allocates at internal/sim allocation sites:
// records whose innermost frame outside the runtime is in package sim.
func simAllocs(run func()) (bytes, objects int64) {
	return profiledAllocs(run, func(frames *runtime.Frames) bool {
		for {
			f, more := frames.Next()
			if !strings.HasPrefix(f.Function, "runtime.") {
				return strings.HasPrefix(f.Function, "macaw/internal/sim.")
			}
			if !more {
				return false
			}
		}
	})
}

// profiledAllocs reports what run allocates in the memory-profile records
// whose call stacks match accepts, sampling every allocation.
func profiledAllocs(run func(), match func(*runtime.Frames) bool) (bytes, objects int64) {
	sum := func() (b, o int64) {
		runtime.GC()
		runtime.GC()
		recs := make([]runtime.MemProfileRecord, 256)
		for {
			n, ok := runtime.MemProfile(recs, true)
			if ok {
				recs = recs[:n]
				break
			}
			recs = make([]runtime.MemProfileRecord, n+64)
		}
		for _, r := range recs {
			if match(runtime.CallersFrames(r.Stack())) {
				b, o = b+r.AllocBytes, o+r.AllocObjects
			}
		}
		return b, o
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	b0, o0 := sum()
	run()
	b1, o1 := sum()
	return b1 - b0, o1 - o0
}

// TestShardedGeneratorBytesPerComponent pins what the sharded engine
// spends on random generators: each worker's components seed their streams
// into the generators of the component before, so over 24 components on 2
// workers the generators come to less than one source (about 5 KB) per
// component. Seeding every stream of every component into a new source
// cost nine per component.
func TestShardedGeneratorBytesPerComponent(t *testing.T) {
	const total, warmup = 2 * sim.Second, 500 * sim.Millisecond
	bp := cityBlueprint(t, 24, 5)
	var info core.ShardInfo
	bytes, objects := generatorAllocs(func() {
		var err error
		if _, info, err = bp.Run(total, warmup, 2); err != nil {
			t.Fatal(err)
		}
	})
	if info.Components != 24 || info.Workers != 2 {
		t.Fatalf("ran %d components on %d workers, want 24 on 2", info.Components, info.Workers)
	}
	if objects == 0 {
		t.Fatal("no generator was built: the run drew no random number")
	}
	perComp := float64(bytes) / float64(info.Components)
	perSource := float64(bytes) / float64(objects)
	t.Logf("%d generators, %d bytes: %.0f bytes per component, %.0f per source", objects, bytes, perComp, perSource)
	if perComp > perSource {
		t.Fatalf("%.0f generator bytes per component, want at most one source (%.0f bytes)", perComp, perSource)
	}
}

// TestShardedEventBytesPerComponent pins what the sharded engine spends at
// internal/sim allocation sites, where the event queue's storage is made:
// each worker's components schedule into the slab, heap and free list of
// the component before, so over 24 components on 2 workers the sim layer
// allocates less per component than half of what one component allocates
// there when it runs alone: its peak queue footprint plus the simulator
// itself. Building every component's queue from nothing cost about 0.9 of
// it, the share of the 24 components whose queues peak as high.
func TestShardedEventBytesPerComponent(t *testing.T) {
	const total, warmup = 2 * sim.Second, 500 * sim.Millisecond
	bp := cityBlueprint(t, 24, 5)
	var info core.ShardInfo
	maxq := make([]int, 24)
	bp.Instrument = func(n *core.Network, comp int) func(core.Results) {
		return func(core.Results) { maxq[comp] = n.Sim.MaxQueued() }
	}
	bytes, objects := simAllocs(func() {
		var err error
		if _, info, err = bp.Run(total, warmup, 2); err != nil {
			t.Fatal(err)
		}
	})
	if info.Components != 24 || info.Workers != 2 {
		t.Fatalf("ran %d components on %d workers, want 24 on 2", info.Components, info.Workers)
	}
	one := cityBlueprint(t, 1, 5)
	oneBytes, _ := simAllocs(func() {
		if _, _, err := one.Run(total, warmup, 2); err != nil {
			t.Fatal(err)
		}
	})
	perComp := float64(bytes) / float64(info.Components)
	t.Logf("sim sites: %d bytes in %d objects, %.0f bytes per component; one component alone: %d bytes; peak queues %v",
		bytes, objects, perComp, oneBytes, maxq)
	if perComp >= float64(oneBytes)/2 {
		t.Fatalf("%.0f sim-layer bytes per component, want less than half the %d one component allocates alone", perComp, oneBytes)
	}
}
