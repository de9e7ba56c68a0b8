package core

// Members returns the stations and streams of each of the blueprint's
// causal components.
func (bp Blueprint) Members() (stations, streams [][]int) {
	labels, count, _, _ := bp.Partition()
	return bp.members(labels, count)
}

// Materialize builds component c, whose stations and streams Members
// returned, through sp, as a shard worker does.
func (bp Blueprint) Materialize(stations, streams []int, c int, sp *Spares) (*Network, error) {
	n, _, err := bp.materialize(stations, streams, true, c, sp)
	return n, err
}
