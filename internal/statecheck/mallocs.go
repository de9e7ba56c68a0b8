package statecheck

import "runtime"

// Mallocs runs f runs times to reach its steady state — pools filled,
// bounded amortized growth done — then measures three more batches of runs
// and returns the fewest heap allocations a batch made in total. It
// replaces testing.AllocsPerRun in the allocation-free checks: that warms
// up once, then divides by runs and rounds down, so an allocation made in
// fewer than every run reads 0. An allocation f makes shows in every
// batch; one made by another goroutine in the same instant does not.
// Growth without bound shows too: a slice that grows each run doubles at
// least once in the measured batches.
func Mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	batch := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		before := m.Mallocs
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&m)
		return m.Mallocs - before
	}
	batch()
	return min(batch(), batch(), batch())
}
