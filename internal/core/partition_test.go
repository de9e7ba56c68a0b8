package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"macaw/internal/core"
	"macaw/internal/geom"
	"macaw/internal/mac/macaw"
	"macaw/internal/phy"
	"macaw/internal/topo"
)

// TestPartitionMatchesBruteForce checks Blueprint.Partition label for label
// against a reference built the slow way: every station pair within the
// certified cutoff joined, every stream's endpoints joined, and labels
// numbered in first-occurrence order. The blueprints are random buildings
// spread wide enough to fall into many radio components, with random
// streams that couple some of them.
func TestPartitionMatchesBruteForce(t *testing.T) {
	cutoff, ok := phy.DefaultParams().IndexCutoff()
	if !ok {
		t.Fatal("default physics must certify a cutoff")
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		var bp core.Blueprint
		n := 1 + rng.Intn(80)
		side := 200 + rng.Float64()*1500
		for i := 0; i < n; i++ {
			pos := geom.V(rng.Float64()*side, rng.Float64()*side, rng.Float64()*30)
			if i > 0 && rng.Intn(8) == 0 {
				// A station at the cutoff from an earlier one: the hop
				// test is inclusive, so this pair must join.
				pos = bp.Stations[rng.Intn(i)].Pos.Add(geom.V(cutoff, 0, 0))
			}
			bp.Stations = append(bp.Stations, core.BlueprintStation{Pos: pos})
		}
		for j := rng.Intn(n/4 + 1); j > 0; j-- {
			bp.Streams = append(bp.Streams, core.BlueprintStream{From: rng.Intn(n), To: rng.Intn(n)})
		}

		labels, count, got, ok := bp.Partition()
		if !ok || got != cutoff {
			t.Fatalf("trial %d: cutoff = %v, %v; want %v, true", trial, got, ok, cutoff)
		}
		want, wantCount := bruteForcePartition(bp, cutoff)
		if count != wantCount || !reflect.DeepEqual(labels, want) {
			t.Fatalf("trial %d (%d stations, %d streams): partition %v (%d components), reference %v (%d)",
				trial, n, len(bp.Streams), labels, count, want, wantCount)
		}
	}
}

// bruteForcePartition is the O(n²) reference for Blueprint.Partition.
func bruteForcePartition(bp core.Blueprint, cutoff float64) ([]int, int) {
	n := len(bp.Stations)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	join := func(a, b int) { parent[find(a)] = find(b) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if bp.Stations[i].Pos.Dist(bp.Stations[j].Pos) <= cutoff {
				join(i, j)
			}
		}
	}
	for _, s := range bp.Streams {
		join(s.From, s.To)
	}
	labels := make([]int, n)
	first := make(map[int]int)
	for i := range labels {
		r := find(i)
		if _, seen := first[r]; !seen {
			first[r] = len(first)
		}
		labels[i] = first[r]
	}
	return labels, len(first)
}

// cityLayoutBlueprint is the bench city's blueprint: 10 000 clustered
// stations over a 12 000 ft side, seed 1.
func cityLayoutBlueprint(tb testing.TB) core.Blueprint {
	tb.Helper()
	l := topo.Random(topo.RandomSpec{N: 10000, Clustered: true, AreaFt: 12000, Seed: 1})
	bp, err := l.Blueprint(core.MACAWFactory(macaw.DefaultOptions()))
	if err != nil {
		tb.Fatal(err)
	}
	return bp
}

// TestPartitionCityDigest pins the city's partition to what the per-point
// grid pass computed: the sha256 of its labels, one decimal per line, and
// its component count. The shard assignment and the bench city's digest
// both follow from these labels.
func TestPartitionCityDigest(t *testing.T) {
	labels, count, _, ok := cityLayoutBlueprint(t).Partition()
	if !ok {
		t.Fatal("default physics must certify a cutoff")
	}
	sum := sha256.New()
	for _, l := range labels {
		fmt.Fprintf(sum, "%d\n", l)
	}
	const want = "01bb9b1be54b8b469d6ca8cd04760febd6b033bb3cf7154c3a40426e62d3467f"
	if got := hex.EncodeToString(sum.Sum(nil)); got != want || count != 1250 {
		t.Fatalf("city partition: %d components, labels sha256 %s; want 1250, %s", count, got, want)
	}
}

// partitionCount keeps BenchmarkPartition's result live.
var partitionCount int

// BenchmarkPartition partitions the bench city and reports the cost per
// station.
func BenchmarkPartition(b *testing.B) {
	bp := cityLayoutBlueprint(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, partitionCount, _, _ = bp.Partition()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bp.Stations)), "ns/station")
}

// BenchmarkMaterialize builds the bench city's components one after
// another through one Spares, as one shard worker builds its share, and
// releases each once it is built. It reports the bytes and allocations of
// the whole set-up per station; a fresh Spares each op makes the first
// components grow the storage the rest reuse.
func BenchmarkMaterialize(b *testing.B) {
	bp := cityLayoutBlueprint(b)
	stations, streams := bp.Members()
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sp core.Spares
		for c := range stations {
			n, err := bp.Materialize(stations[c], streams[c], c, &sp)
			if err != nil {
				b.Fatal(err)
			}
			n.Release()
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N * len(bp.Stations))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/station")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/station")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/station")
}
