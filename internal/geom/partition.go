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
// (pts, r, links) — independent of the union order and any shard count —
// which is what lets shard planners built on top of it promise
// deterministic partitions.
//
// The hop test is inclusive (dist == r connects): the medium treats a pair
// at exactly the cutoff as potentially audible, so the partition must too.
//
// The pass works per cell of edge r, not per point. It buckets the points by
// cell with one map lookup each, then resolves each occupied cell's
// neighbour cells once: the cells in the union of its members' blocks
// CellOf(p-r)..CellOf(p+r), the block a per-point grid query would visit.
// Every cell pair that either side's block joins is tested once, member by
// member, so the candidate pairs are those of the per-point query even
// where float rounding makes a block lopsided at a cell edge. Cost is
// O(len(pts) + cells·27 + candidate pairs + len(links)), with about 27
// map lookups per occupied cell rather than per point.
func Components(pts []Vec3, r float64, links [][2]int) (labels []int, count int) {
	labels = make([]int, len(pts))
	if len(pts) == 0 {
		return labels, 0
	}
	if !(r > 0) || math.IsInf(r, 1) {
		// No finite positive cutoff: everything must be assumed connected.
		return labels, 1
	}

	// Bucket the points by cell. Cell ids follow first occurrence, and
	// cell c's members, ascending, are members[start[c]:start[c+1]].
	ids := make(map[Cube]int32)
	cellOf := make([]int32, len(pts))
	for i, p := range pts {
		c := CellOf(p, r)
		id, ok := ids[c]
		if !ok {
			id = int32(len(ids))
			ids[c] = id
		}
		cellOf[i] = id
	}
	start := make([]int32, len(ids)+1)
	for _, c := range cellOf {
		start[c]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1] // now the end of cell c
	}
	members := make([]int32, len(pts))
	for i := len(pts) - 1; i >= 0; i-- {
		c := cellOf[i]
		start[c]--
		members[start[c]] = int32(i)
	}

	// Each cell's block: the union of its members' query blocks.
	blocks := make([]block, len(ids))
	for c := range blocks {
		for k, i := range members[start[c]:start[c+1]] {
			p := pts[i]
			lo := CellOf(Vec3{p.X - r, p.Y - r, p.Z - r}, r)
			hi := CellOf(Vec3{p.X + r, p.Y + r, p.Z + r}, r)
			if k == 0 {
				blocks[c] = block{lo, hi}
			} else {
				blocks[c].grow(lo, hi)
			}
		}
	}

	// Union-find whose root is always the least index of its set, so a
	// point is its component's first occurrence iff it is its own root.
	// Path halving keeps parent[x] <= x.
	parent := cellOf // the bucketing is done with it
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra < rb {
			parent[rb] = ra
		} else if rb < ra {
			parent[ra] = rb
		}
	}
	join := func(as, bs []int32) {
		for _, a := range as {
			for _, b := range bs {
				if pts[a].Dist(pts[b]) <= r {
					union(a, b)
				}
			}
		}
	}
	for c := range blocks {
		own := members[start[c]:start[c+1]]
		for k := range own {
			join(own[k:k+1], own[k+1:])
		}
		home := CellOf(pts[own[0]], r)
		b := blocks[c]
		for i := b.lo.I; i <= b.hi.I; i++ {
			for j := b.lo.J; j <= b.hi.J; j++ {
				for k := b.lo.K; k <= b.hi.K; k++ {
					d, ok := ids[Cube{i, j, k}]
					// A pair of cells is tested from the lower id, or from
					// this cell alone when the other's block misses it.
					if ok && d != int32(c) && (d > int32(c) || !blocks[d].has(home)) {
						join(own, members[start[d]:start[d+1]])
					}
				}
			}
		}
	}
	for _, l := range links {
		union(int32(l[0]), int32(l[1]))
	}
	for i := range labels {
		if root := find(int32(i)); int(root) == i {
			labels[i] = count
			count++
		} else {
			labels[i] = labels[root]
		}
	}
	return labels, count
}

// block is an inclusive box of cells.
type block struct{ lo, hi Cube }

// grow widens b to cover lo..hi as well.
func (b *block) grow(lo, hi Cube) {
	b.lo = Cube{min(b.lo.I, lo.I), min(b.lo.J, lo.J), min(b.lo.K, lo.K)}
	b.hi = Cube{max(b.hi.I, hi.I), max(b.hi.J, hi.J), max(b.hi.K, hi.K)}
}

// has reports whether cell c lies in b.
func (b block) has(c Cube) bool {
	return b.lo.I <= c.I && c.I <= b.hi.I &&
		b.lo.J <= c.J && c.J <= b.hi.J &&
		b.lo.K <= c.K && c.K <= b.hi.K
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
