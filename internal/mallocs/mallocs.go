// Package mallocs holds the allocation pins' one counter: heap
// allocations per call at a chosen GOMAXPROCS. Only tests import it.
package mallocs

import (
	"math"
	"runtime"
	"testing"
)

// raceEnabled reports a build with the race detector (race.go). Its
// runtime allocates inside sync primitives (semacquire under
// WaitGroup.Wait), so a pin skips under it and runs in every other
// build.
var raceEnabled bool

// PerRun is testing.AllocsPerRun at GOMAXPROCS procs: heap allocations
// per call of f, averaged over runs calls after one uncounted call.
// AllocsPerRun itself measures at GOMAXPROCS 1, where every par call is
// one chunk on the caller, so it cannot see an allocation made per
// chunk. PerRun returns the least of three such averages: at a
// processor count above the machine's, a collection that falls among
// the runs can make the runtime allocate threads and goroutines of its
// own, which a round without one does not count. Under the race
// detector it skips tb instead.
func PerRun(tb testing.TB, procs, runs int, f func()) float64 {
	tb.Helper()
	if raceEnabled {
		tb.Skip("the race runtime allocates in sync primitives; this pin runs without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
	least := uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.Mallocs-before.Mallocs)/uint64(runs))
	}
	return float64(least)
}
