package geom

import (
	"math/rand"
	"testing"
)

func TestComponentsBasic(t *testing.T) {
	// Two clusters 100 ft apart, hop radius 10: two components, labeled in
	// first-occurrence order.
	pts := []Vec3{
		V(0, 0, 0), V(5, 0, 0), V(9, 3, 0), // chain: 0-1-2
		V(100, 0, 0), V(104, 0, 0), // pair: 3-4
	}
	labels, n := Components(pts, 10, nil)
	if n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
	want := []int{0, 0, 0, 1, 1}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestComponentsHopIsInclusiveAtExactRadius(t *testing.T) {
	// Two points at exactly r must connect: the medium treats a pair at the
	// certified cutoff as potentially audible.
	labels, n := Components([]Vec3{V(0, 0, 0), V(10, 0, 0)}, 10, nil)
	if n != 1 || labels[0] != labels[1] {
		t.Fatalf("points at exactly r not connected: labels=%v count=%d", labels, n)
	}
	// Just beyond r must not.
	labels, n = Components([]Vec3{V(0, 0, 0), V(10.001, 0, 0)}, 10, nil)
	if n != 2 || labels[0] == labels[1] {
		t.Fatalf("points beyond r connected: labels=%v count=%d", labels, n)
	}
}

func TestComponentsTransitiveChain(t *testing.T) {
	// A long chain where only consecutive points are within r: one component.
	var pts []Vec3
	for i := 0; i < 50; i++ {
		pts = append(pts, V(float64(i)*9, 0, 0))
	}
	_, n := Components(pts, 10, nil)
	if n != 1 {
		t.Fatalf("chain split into %d components, want 1", n)
	}
}

func TestComponentsDegenerateInputs(t *testing.T) {
	if labels, n := Components(nil, 10, nil); n != 0 || len(labels) != 0 {
		t.Fatalf("empty input: labels=%v count=%d", labels, n)
	}
	// Non-positive or infinite radius: no certificate, everything is one
	// component.
	pts := []Vec3{V(0, 0, 0), V(1e6, 0, 0)}
	for _, r := range []float64{0, -1} {
		labels, n := Components(pts, r, nil)
		if n != 1 || labels[0] != 0 || labels[1] != 0 {
			t.Fatalf("r=%v: labels=%v count=%d, want one component", r, labels, n)
		}
	}
}

func TestComponentsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		r := 5 + rng.Float64()*20
		pts := make([]Vec3, n)
		for i := range pts {
			pts[i] = V(rng.Float64()*300-150, rng.Float64()*300-150, rng.Float64()*20)
		}
		labels, count := Components(pts, r, nil)
		if len(labels) != n {
			t.Fatalf("trial %d: %d labels for %d points", trial, len(labels), n)
		}
		// Brute-force union-find for the reference partition.
		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for ref[x] != x {
				ref[x] = ref[ref[x]]
				x = ref[x]
			}
			return x
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if pts[i].Dist(pts[j]) <= r {
					ri, rj := find(i), find(j)
					if ri != rj {
						ref[ri] = rj
					}
				}
			}
		}
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			if !seen[find(i)] {
				seen[find(i)] = true
			}
			for j := i + 1; j < n; j++ {
				same := find(i) == find(j)
				if (labels[i] == labels[j]) != same {
					t.Fatalf("trial %d: points %d,%d same=%v but labels %d,%d",
						trial, i, j, same, labels[i], labels[j])
				}
			}
		}
		if count != len(seen) {
			t.Fatalf("trial %d: count=%d, brute force says %d", trial, count, len(seen))
		}
		// First-occurrence normalization: scanning labels left to right, each
		// new label must be exactly one more than the max seen so far.
		max := -1
		for i, l := range labels {
			if l > max+1 {
				t.Fatalf("trial %d: label %d at index %d skips ahead of max %d", trial, l, i, max)
			}
			if l > max {
				max = l
			}
		}
	}
}

// TestShardOfCellTotalDeterministicPartition is the satellite property test:
// cell→shard assignment is a total, deterministic partition at any shard
// count — every cell (including negative and extreme coordinates) maps into
// [0, shards), repeatably.
func TestShardOfCellTotalDeterministicPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cells := []Cube{
		{0, 0, 0}, {-1, -1, -1}, {1 << 20, -(1 << 20), 3},
		{-2147483648 >> 8, 2147483647 >> 8, 0},
	}
	for i := 0; i < 500; i++ {
		cells = append(cells, Cube{rng.Intn(4001) - 2000, rng.Intn(4001) - 2000, rng.Intn(41) - 20})
	}
	for _, shards := range []int{1, 2, 3, 4, 7, 8, 64} {
		hit := make([]bool, shards)
		for _, c := range cells {
			s := ShardOfCell(c, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOfCell(%v, %d) = %d out of range", c, shards, s)
			}
			if ShardOfCell(c, shards) != s {
				t.Fatalf("ShardOfCell(%v, %d) not deterministic", c, shards)
			}
			hit[s] = true
		}
		// With 500+ scrambled cells every shard should be populated —
		// the hash actually spreads load rather than collapsing.
		if shards <= 64 {
			for s, ok := range hit {
				if !ok {
					t.Fatalf("shards=%d: shard %d never assigned across %d cells", shards, s, len(cells))
				}
			}
		}
	}
	// shards <= 1 degenerates to shard 0.
	for _, shards := range []int{1, 0, -3} {
		if s := ShardOfCell(Cube{5, -7, 2}, shards); s != 0 {
			t.Fatalf("ShardOfCell(_, %d) = %d, want 0", shards, s)
		}
	}
}

// TestGridCellEdgePositions pins the boundary convention under shard
// mapping: a station exactly on a cell edge belongs to the higher cell
// (floor-division half-open cells [i, i+1)), and CellOf agrees with the
// grid's internal mapping, so a component anchored by CellOf lands in the
// same cell the spatial hash files its stations under.
func TestGridCellEdgePositions(t *testing.T) {
	g := NewGrid(10)
	cases := []struct {
		p    Vec3
		want Cube
	}{
		{V(0, 0, 0), Cube{0, 0, 0}},
		{V(10, 0, 0), Cube{1, 0, 0}}, // exactly on the +X edge
		{V(9.999, 0, 0), Cube{0, 0, 0}},
		{V(-10, 0, 0), Cube{-1, 0, 0}}, // exactly on a negative edge
		{V(-0.001, 0, 0), Cube{-1, 0, 0}},
		{V(10, 10, 10), Cube{1, 1, 1}}, // corner point
		{V(-20, 30, -10), Cube{-2, 3, -1}},
	}
	for _, c := range cases {
		if got := g.cellOf(c.p); got != c.want {
			t.Fatalf("cellOf(%v) = %v, want %v", c.p, got, c.want)
		}
		if got := CellOf(c.p, 10); got != c.want {
			t.Fatalf("CellOf(%v, 10) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestGridMoveAcrossShardBoundary exercises Move across cells that map to
// different shards: membership follows the move, the old cell is vacated,
// and the destination's shard assignment is the same one a fresh Insert
// would get — moving is indistinguishable from remove+insert.
func TestGridMoveAcrossShardBoundary(t *testing.T) {
	const cell = 10.0
	const shards = 4
	g := NewGrid(cell)
	from := V(9.5, 0, 0)  // cell {0,0,0}
	to := V(10.0, 0, 0)   // cell {1,0,0}: crossing exactly onto the edge
	far := V(-35, 22, -3) // cell {-4,2,-1}
	if CellOf(from, cell) == CellOf(to, cell) {
		t.Fatal("test positions must straddle a cell boundary")
	}
	g.Insert(1, from)
	g.Move(1, from, to)
	found := false
	g.ForEachWithin(to, 0.5, func(id int32) { found = found || id == 1 })
	if !found {
		t.Fatal("member not found at destination after boundary move")
	}
	g.ForEachWithin(V(5, 0, 0), 4, func(id int32) {
		if id == 1 {
			t.Fatal("member still visited in source cell after boundary move")
		}
	})
	// Chained moves across shard boundaries keep exactly one registration.
	g.Move(1, to, far)
	if g.Len() != 1 {
		t.Fatalf("Len = %d after chained moves, want 1", g.Len())
	}
	// Shard of the destination cell must match what a fresh insert would
	// compute — the assignment depends only on the cell, not the history.
	if ShardOfCell(CellOf(far, cell), shards) != ShardOfCell(g.cellOf(far), shards) {
		t.Fatal("shard assignment diverges between CellOf and grid cellOf")
	}
}
