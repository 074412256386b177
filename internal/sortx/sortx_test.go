package sortx

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/par"
)

// reference stably sorts a copy of p with the stdlib — the oracle every
// property test compares against.
func reference(p []KV) []KV {
	ref := make([]KV, len(p))
	copy(ref, p)
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].K < ref[j].K })
	return ref
}

func checkAgainstStdlib(t *testing.T, name string, p []KV, workers int) {
	t.Helper()
	ref := reference(p)
	got := make([]KV, len(p))
	copy(got, p)
	Pairs(got, workers)
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("%s (workers=%d): element %d = %+v, want %+v", name, workers, i, got[i], ref[i])
		}
	}
}

// distributions generates the key patterns the radix sort must handle:
// each returns n pairs whose payload is the input position, so payload
// order among duplicate keys certifies stability.
var distributions = map[string]func(n int, rng *rand.Rand) []KV{
	"uniform64": func(n int, rng *rand.Rand) []KV {
		p := make([]KV, n)
		for i := range p {
			p[i] = KV{K: rng.Uint64(), V: int64(i)}
		}
		return p
	},
	"uniform-narrow": func(n int, rng *rand.Rand) []KV {
		// Few distinct keys: exercises duplicate-heavy buckets and the
		// skipped constant high bytes.
		p := make([]KV, n)
		for i := range p {
			p[i] = KV{K: uint64(rng.Intn(17)), V: int64(i)}
		}
		return p
	},
	"all-equal": func(n int, rng *rand.Rand) []KV {
		p := make([]KV, n)
		for i := range p {
			p[i] = KV{K: 0xdeadbeef, V: int64(i)}
		}
		return p
	},
	"presorted": func(n int, rng *rand.Rand) []KV {
		p := make([]KV, n)
		for i := range p {
			p[i] = KV{K: uint64(i) * 3, V: int64(i)}
		}
		return p
	},
	"reversed": func(n int, rng *rand.Rand) []KV {
		p := make([]KV, n)
		for i := range p {
			p[i] = KV{K: uint64(n - i), V: int64(i)}
		}
		return p
	},
	"morton-like": func(n int, rng *rand.Rand) []KV {
		// 24-bit keys as the level-8 octree produces: only three radix
		// passes should run, the rest skip.
		p := make([]KV, n)
		for i := range p {
			p[i] = KV{K: uint64(rng.Intn(1 << 24)), V: int64(i)}
		}
		return p
	},
}

func TestPairsMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 100, 2048, 2049, 10_000, 65_537}
	for name, gen := range distributions {
		for _, n := range sizes {
			for _, w := range []int{1, 2, runtime.NumCPU()} {
				checkAgainstStdlib(t, name, gen(n, rng), w)
			}
		}
	}
}

func TestPairsStability(t *testing.T) {
	// Heavily duplicated keys: for every run of equal keys the payloads
	// (input positions) must be strictly increasing.
	rng := rand.New(rand.NewSource(2))
	p := make([]KV, 50_000)
	for i := range p {
		p[i] = KV{K: uint64(rng.Intn(64)), V: int64(i)}
	}
	Pairs(p, runtime.NumCPU())
	for i := 1; i < len(p); i++ {
		if p[i].K == p[i-1].K && p[i].V <= p[i-1].V {
			t.Fatalf("stability violated at %d: key %d payloads %d then %d", i, p[i].K, p[i-1].V, p[i].V)
		}
	}
}

func TestFloat64KeyOrdering(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -2.5, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, 2.5, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		a, b := vals[i-1], vals[i]
		if a < b && Float64Key(a) >= Float64Key(b) {
			t.Errorf("Float64Key not monotone: %g vs %g", a, b)
		}
		if a < b && Float64KeyDesc(a) <= Float64KeyDesc(b) {
			t.Errorf("Float64KeyDesc not antitone: %g vs %g", a, b)
		}
	}
}

// TestSorterReuseMatchesStdlib runs one Sorter large → small → large
// over every distribution, with GOMAXPROCS changed between the calls
// (1 → 7 → 2): whatever its histograms, partials, plan and buffer held
// from the call before, every result is the stdlib's. The class of bug
// is stale state that only a second call, and only a core count that
// grew, can reach.
func TestSorterReuseMatchesStdlib(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(4))
	var s Sorter
	for name, gen := range distributions {
		for i, n := range []int{40_000, 3, 700, 40_000, 1, 25_000} {
			runtime.GOMAXPROCS([]int{1, 7, 2}[i%3])
			p := gen(n, rng)
			want := reference(p)
			s.Sort(p)
			for j := range p {
				if p[j] != want[j] {
					t.Fatalf("%s, call %d (%d pairs, GOMAXPROCS %d): element %d = %+v, want %+v",
						name, i, n, runtime.GOMAXPROCS(0), j, p[j], want[j])
				}
			}
		}
	}
}

// TestSorterAllocatesNothing: a warm Sort of Morton-like keys and of
// 64-bit keys allocates nothing at 1, 2 and 8 cores.
func TestSorterAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"morton-like", "uniform64"} {
		master := distributions[name](100_000, rng)
		p := make([]KV, len(master))
		for _, procs := range []int{1, 2, 8} {
			var s Sorter
			if got := mallocsPerRun(procs, 5, func() {
				copy(p, master)
				s.Sort(p)
			}); got != 0 {
				t.Errorf("%s, GOMAXPROCS %d: %v allocations per warm Sort, want 0", name, procs, got)
			}
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun at GOMAXPROCS procs: heap
// allocations per call of f, averaged over runs calls after one
// uncounted call. AllocsPerRun itself measures at GOMAXPROCS 1, where
// every par call is one chunk on the caller, so it cannot see an
// allocation made per chunk. It returns the least of three such
// averages: at a processor count above the machine's, a collection
// that falls among the runs can make the runtime allocate threads and
// goroutines of its own, which a round without one does not count.
func mallocsPerRun(procs, runs int, f func()) float64 {
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

// TestSorterMutantsFail seeds the sorter with the mistakes a rewrite of
// its reuse could make — each mutant is the sorter's own passes run
// with one fault — and demands that the comparison with the stdlib
// reports every one, as a wrong element or a panic.
func TestSorterMutantsFail(t *testing.T) {
	const workers = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	rng := rand.New(rand.NewSource(6))
	master := distributions["morton-like"](20_000, rng)

	mutants := []struct {
		name string
		run  func(s *Sorter, p []KV)
	}{
		{"unmutated passes", func(s *Sorter, p []KV) { s.Sort(p) }},
		{"the histograms not cleared between digits", func(s *Sorter, p []KV) {
			s.prepare(len(p), workers)
			keys := s.keySpan(p)
			src, dst := p, s.buf[:len(p)]
			clear(s.hist)
			for d := 0; d < digits; d++ {
				shift := uint(d * radixBits)
				if byte(keys.or>>shift) == byte(keys.and>>shift) {
					continue
				}
				s.src, s.dst, s.shift = src, dst, shift
				s.count()
				s.scatter()
				src, dst = dst, src
			}
			copy(p, src)
		}},
		{"the chunk plan kept from a call at a smaller GOMAXPROCS", func(s *Sorter, p []KV) {
			warm := append([]KV(nil), p...)
			s.sort(warm, 1) // sizes the histograms for one chunk
			s.workers, s.plan = workers, par.Chunks(len(p), workers)
			keys := s.keySpan(p)
			src, dst := p, s.buf[:len(p)]
			for d := 0; d < digits; d++ {
				shift := uint(d * radixBits)
				if byte(keys.or>>shift) == byte(keys.and>>shift) {
					continue
				}
				s.src, s.dst, s.shift = src, dst, shift
				clear(s.hist)
				s.count()
				s.scatter()
				src, dst = dst, src
			}
			copy(p, src)
		}},
	}
	want := reference(master)
	for i, m := range mutants {
		p := append([]KV(nil), master...)
		var d string
		func() {
			defer func() {
				if r := recover(); r != nil {
					d = fmt.Sprint("panic: ", r)
				}
			}()
			m.run(new(Sorter), p)
			for j := range p {
				if p[j] != want[j] {
					d = fmt.Sprintf("element %d = %+v, want %+v", j, p[j], want[j])
					return
				}
			}
		}()
		switch {
		case i == 0 && d != "":
			t.Errorf("%s: %s", m.name, d)
		case i > 0 && d == "":
			t.Errorf("mutant %q passed the comparison", m.name)
		case i > 0:
			t.Logf("mutant %q caught: %s", m.name, d)
		}
	}
}

// FuzzPairs feeds arbitrary byte strings as key material; the sorted
// result must match the stdlib oracle element-for-element (payload
// equality makes this a stability check too). One Sorter serves every
// input, at a worker count that changes with the input's length, so
// state an earlier input left behind shows up as a wrong element.
func FuzzPairs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(make([]byte, 4096))
	var s Sorter
	f.Fuzz(func(t *testing.T, data []byte) {
		p := make([]KV, 0, len(data)/2+1)
		// Low-entropy keys (one byte each, shifted by position parity)
		// maximize duplicates and bucket skew.
		for i, b := range data {
			p = append(p, KV{K: uint64(b) << (8 * uint(i%3)), V: int64(i)})
		}
		want := reference(p)
		workers := 1 + len(data)%4
		s.sort(p, workers)
		for i := range p {
			if p[i] != want[i] {
				t.Fatalf("workers=%d: element %d = %+v, want %+v", workers, i, p[i], want[i])
			}
		}
	})
}
