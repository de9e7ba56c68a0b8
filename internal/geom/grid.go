package geom

import "math"

// Grid is a uniform spatial hash over axis-aligned cubic cells of a
// configurable edge length. It answers "which members might lie within r of
// this point?" by visiting only the cells overlapping the query sphere, so
// neighborhood queries cost O(members nearby) instead of O(members total).
//
// Members are identified by caller-chosen int32 ids. The grid stores the
// position a member was inserted (or last moved) at; the caller is
// responsible for keeping that position current via Move. Queries are
// conservative: every member within r of the query point is visited, and
// members slightly beyond r may be visited too — callers that need an exact
// radius must filter by distance themselves.
type Grid struct {
	cell  float64
	cells map[Cube][]int32
}

// NewGrid returns an empty grid with the given cell edge length. A cell edge
// at least as large as the common query radius keeps every query within the
// 3x3x3 block around the query point.
func NewGrid(cellSize float64) *Grid {
	g := &Grid{cells: make(map[Cube][]int32)}
	g.Reset(cellSize)
	return g
}

// Reset empties the grid and gives it a new cell edge, keeping its map's
// storage for the members inserted next.
func (g *Grid) Reset(cellSize float64) {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		panic("geom: grid cell size must be positive and finite")
	}
	g.cell = cellSize
	clear(g.cells)
}

// cellOf maps a position to its containing cell.
func (g *Grid) cellOf(p Vec3) Cube {
	return Cube{
		int(math.Floor(p.X / g.cell)),
		int(math.Floor(p.Y / g.cell)),
		int(math.Floor(p.Z / g.cell)),
	}
}

// Insert registers id at position p.
func (g *Grid) Insert(id int32, p Vec3) {
	c := g.cellOf(p)
	g.cells[c] = append(g.cells[c], id)
}

// Remove unregisters id, which must currently be registered at p (the
// position given to the Insert or Move that placed it). Removing an id that
// is not in p's cell panics: it means the caller's position bookkeeping has
// drifted from the grid's.
func (g *Grid) Remove(id int32, p Vec3) {
	c := g.cellOf(p)
	members := g.cells[c]
	for i, m := range members {
		if m == id {
			members[i] = members[len(members)-1]
			members[len(members)-1] = 0
			members = members[:len(members)-1]
			if len(members) == 0 {
				delete(g.cells, c)
			} else {
				g.cells[c] = members
			}
			return
		}
	}
	panic("geom: grid member not found in its cell")
}

// Move re-registers id from position from to position to. Moves within one
// cell are free.
func (g *Grid) Move(id int32, from, to Vec3) {
	if g.cellOf(from) == g.cellOf(to) {
		return
	}
	g.Remove(id, from)
	g.Insert(id, to)
}

// ForEachWithin visits every member whose cell overlaps the sphere of radius
// r around p (a superset of the members within r; within-cell visiting order
// is insertion-history order, so callers needing a canonical order must sort).
func (g *Grid) ForEachWithin(p Vec3, r float64, fn func(id int32)) {
	if r < 0 {
		return
	}
	lo := g.cellOf(Vec3{p.X - r, p.Y - r, p.Z - r})
	hi := g.cellOf(Vec3{p.X + r, p.Y + r, p.Z + r})
	for i := lo.I; i <= hi.I; i++ {
		for j := lo.J; j <= hi.J; j++ {
			for k := lo.K; k <= hi.K; k++ {
				for _, id := range g.cells[Cube{i, j, k}] {
					fn(id)
				}
			}
		}
	}
}

// Len reports the number of registered members.
func (g *Grid) Len() int {
	n := 0
	for _, members := range g.cells {
		n += len(members)
	}
	return n
}
