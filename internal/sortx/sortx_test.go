package sortx

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
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
	sizes := []int{0, 1, 2, 100, FallbackThreshold, FallbackThreshold + 1, 10_000, 65_537}
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

func TestPairsScratchShortScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := distributions["uniform64"](10_000, rng)
	ref := reference(p)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	PairsScratch(p, make([]KV, 5)) // undersized scratch must still sort
	for i := range p {
		if p[i] != ref[i] {
			t.Fatalf("short-scratch sort wrong at %d", i)
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

// FuzzPairs feeds arbitrary byte strings as key material; the sorted
// result must match the stdlib oracle element-for-element (payload
// equality makes this a stability check too).
func FuzzPairs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(make([]byte, 4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := make([]KV, 0, len(data)/2+1)
		// Low-entropy keys (one byte each, shifted by position parity)
		// maximize duplicates and bucket skew.
		for i, b := range data {
			p = append(p, KV{K: uint64(b) << (8 * uint(i%3)), V: int64(i)})
		}
		checkAgainstStdlib(t, "fuzz", p, 1+len(data)%4)
	})
}
