package geom

import "math"

// Components labels points by spatial connectivity: two points share a label
// iff they are linked by a chain of hops, each either of length at most r or
// one of the given links (pairs of point indices). With r the medium's
// certified interaction cutoff (phy.Params.IndexCutoff), the labels without
// links are exactly the radio-interaction components of a static topology —
// every pair of points in different components is provably beyond the
// cutoff, so the gain between them is stored as exactly zero and no event in
// one component can ever influence the other. Links fold non-radio coupling
// into that partition: a traffic stream's endpoints must execute together
// even if their radios never hear each other.
//
// Labels are normalized to first-occurrence order: the component of pts[0]
// is 0, the next distinct component encountered while scanning pts in order
// is 1, and so on. The labeling is therefore a pure function of
// (pts, r, links) — independent of the union order, the grid's map
// iteration order, and any shard count — which is what lets shard planners
// built on top of it promise deterministic partitions.
//
// The hop test is inclusive (dist == r connects): the medium treats a pair
// at exactly the cutoff as potentially audible, so the partition must too.
// Cost is O(len(pts) · neighbors + len(links)) via a spatial hash of cell
// edge r.
func Components(pts []Vec3, r float64, links [][2]int) (labels []int, count int) {
	labels = make([]int, len(pts))
	if len(pts) == 0 {
		return labels, 0
	}
	if !(r > 0) || math.IsInf(r, 1) {
		// No finite positive cutoff: everything must be assumed connected.
		return labels, 1
	}
	parent := make([]int, len(pts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	g := NewGrid(r)
	for i, p := range pts {
		g.Insert(int32(i), p)
	}
	for i, p := range pts {
		g.ForEachWithin(p, r, func(id int32) {
			j := int(id)
			if j != i && pts[j].Dist(p) <= r {
				union(i, j)
			}
		})
	}
	for _, l := range links {
		union(l[0], l[1])
	}
	// Normalize representative ids to first-occurrence labels.
	rep := make(map[int]int)
	for i := range pts {
		r := find(i)
		l, ok := rep[r]
		if !ok {
			l = len(rep)
			rep[r] = l
		}
		labels[i] = l
	}
	return labels, len(rep)
}

// ShardOfCell maps one grid cell to a shard in [0, shards). The mapping is a
// total, deterministic function of (cell, shards): every cell gets exactly
// one shard, the same cell always gets the same shard, and no coordinate —
// including negative and boundary cells — falls outside the range. Planners
// key a whole component by one anchor cell (its first station's cell), so a
// component's shard depends only on where it sits, not on what else is in
// the building.
func ShardOfCell(c Cube, shards int) int {
	if shards <= 1 {
		return 0
	}
	// SplitMix-style scramble of the three coordinates; the same mixer the
	// simulator uses for RNG stream derivation, chosen for full avalanche so
	// neighboring cells land on unrelated shards.
	z := uint64(int64(c.I))*0x9E3779B97F4A7C15 ^
		uint64(int64(c.J))*0xBF58476D1CE4E5B9 ^
		uint64(int64(c.K))*0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(shards))
}

// CellOf maps a position to its containing cell of the given edge length —
// the same mapping Grid uses internally, exported so shard planners anchor
// components to cells exactly where the spatial hash would put them.
func CellOf(p Vec3, cell float64) Cube {
	return Cube{
		int(math.Floor(p.X / cell)),
		int(math.Floor(p.Y / cell)),
		int(math.Floor(p.Z / cell)),
	}
}
