package geom

import (
	"math"
	"math/rand"
	"reflect"
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

// gridComponents is Components' reference, a per-point pass: every point
// queries a Grid of cell edge r for its own block CellOf(p-r)..CellOf(p+r),
// and labels come from a map of roots in first-occurrence order.
func gridComponents(pts []Vec3, r float64, links [][2]int) (labels []int, count int) {
	labels = make([]int, len(pts))
	if len(pts) == 0 {
		return labels, 0
	}
	if !(r > 0) || math.IsInf(r, 1) {
		return labels, 1
	}
	parent := make([]int, len(pts))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		if ra, rb := find(a), find(b); ra != rb {
			parent[ra] = rb
		}
	}
	g := NewGrid(r)
	for i, p := range pts {
		g.Insert(int32(i), p)
	}
	for i, p := range pts {
		g.ForEachWithin(p, r, func(id int32) {
			if j := int(id); j != i && pts[j].Dist(p) <= r {
				union(i, j)
			}
		})
	}
	for _, l := range links {
		union(l[0], l[1])
	}
	rep := make(map[int]int)
	for i := range pts {
		root := find(i)
		l, ok := rep[root]
		if !ok {
			l = len(rep)
			rep[root] = l
		}
		labels[i] = l
	}
	return labels, len(rep)
}

// TestComponentsMatchesGridReference checks the per-cell pass against the
// per-point grid pass on seeded inputs of up to 2 000 points: uniform and
// clustered, spanning negative coordinates, with points snapped to exact
// multiples of r, pairs at exactly r, duplicates and random links.
func TestComponentsMatchesGridReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(2000)
		r := []float64{1, 7.5, 10, 102.3, 0.1 + rng.Float64()*50}[trial%5]
		side := r * (2 + rng.Float64()*40)
		clustered := trial%2 == 1
		var centres []Vec3
		for i := 0; i < 1+n/8; i++ {
			centres = append(centres, V(rng.Float64()*side-side/2, rng.Float64()*side-side/2, rng.Float64()*3*r-r))
		}
		pts := make([]Vec3, n)
		for i := range pts {
			switch {
			case i > 0 && rng.Intn(10) == 0:
				pts[i] = pts[rng.Intn(i)] // duplicate
			case i > 0 && rng.Intn(10) == 0:
				// At exactly r from an earlier point along one axis.
				d := [3]Vec3{V(r, 0, 0), V(0, -r, 0), V(0, 0, r)}[rng.Intn(3)]
				pts[i] = pts[rng.Intn(i)].Add(d)
			case rng.Intn(8) == 0:
				// On a cell corner: exact multiples of r.
				pts[i] = V(float64(rng.Intn(41)-20)*r, float64(rng.Intn(41)-20)*r, float64(rng.Intn(5)-2)*r)
			case clustered:
				c := centres[rng.Intn(len(centres))]
				pts[i] = c.Add(V(rng.NormFloat64()*r, rng.NormFloat64()*r, rng.NormFloat64()*r/4))
			default:
				pts[i] = V(rng.Float64()*side-side/2, rng.Float64()*side-side/2, rng.Float64()*2*r-r)
			}
		}
		var links [][2]int
		for j := rng.Intn(n/20 + 1); j > 0; j-- {
			links = append(links, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		labels, count := Components(pts, r, links)
		want, wantCount := gridComponents(pts, r, links)
		if count != wantCount || !reflect.DeepEqual(labels, want) {
			t.Fatalf("trial %d (%d points, r=%v, clustered=%v, %d links): %d components, reference %d",
				trial, n, r, clustered, len(links), count, wantCount)
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
