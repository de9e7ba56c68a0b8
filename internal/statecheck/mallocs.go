package statecheck

import (
	"runtime"
	"testing"
)

// Mallocs runs f runs times to reach its steady state — pools filled,
// bounded amortized growth done — then measures three more batches of runs
// and returns the fewest heap allocations a batch made in total. It
// replaces testing.AllocsPerRun in the allocation-free checks: that warms
// up once, then divides by runs and rounds down, so an allocation made in
// fewer than every run reads 0. An allocation f makes shows in every
// batch; one made by another goroutine in the same instant does not.
// Growth without bound shows too: a slice that grows each run doubles at
// least once in the measured batches.
//
// When the count is not 0, Mallocs logs through t each measured batch's
// allocations and the garbage collections that completed during it, so a
// failure tells an allocation of f's from one a collection brought about.
func Mallocs(t testing.TB, runs int, f func()) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	batch := func() (mallocs uint64, gcs uint32) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		before, gc := m.Mallocs, m.NumGC
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&m)
		return m.Mallocs - before, m.NumGC - gc
	}
	batch()
	var mallocs [3]uint64
	var gcs [3]uint32
	for i := range mallocs {
		mallocs[i], gcs[i] = batch()
	}
	least := min(mallocs[0], mallocs[1], mallocs[2])
	if least != 0 {
		t.Logf("statecheck.Mallocs: batches of %d runs made %v heap allocations during %v garbage collections",
			runs, mallocs, gcs)
	}
	return least
}
