package seeding

import (
	"container/heap"
	"math"
	"testing"

	"repro/internal/emsim"
	"repro/internal/fieldline"
	"repro/internal/hexmesh"
	"repro/internal/vec"
)

// boxMesh returns an all-vacuum box mesh.
func boxMesh(t *testing.T, n int) *hexmesh.Mesh {
	t.Helper()
	m, err := hexmesh.BuildBox(vec.Box(vec.New(0, 0, 0), vec.New(1, 1, 1)), n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// uniformZ flows along +z everywhere.
func uniformZ(p vec.V3) vec.V3 { return vec.New(0, 0, 1) }

// splitField is strong in the upper half (y > 0.5), weak below.
func splitField(p vec.V3) vec.V3 {
	if p.Y > 0.5 {
		return vec.New(0, 0, 4)
	}
	return vec.New(0, 0, 1)
}

func defaultCfg(lines int) Config {
	return Config{
		TotalLines: lines,
		Trace:      fieldline.Config{Step: 0.02, MaxSteps: 200},
		Seed:       12345,
	}
}

func TestConfigValidate(t *testing.T) {
	if defaultCfg(10).Validate() != nil {
		t.Error("good config rejected")
	}
	bad := defaultCfg(0)
	if bad.Validate() == nil {
		t.Error("accepted zero lines")
	}
	bad = defaultCfg(10)
	bad.Trace.Step = 0
	if bad.Validate() == nil {
		t.Error("accepted zero trace step")
	}
}

func TestSeedLinesProducesBudget(t *testing.T) {
	m := boxMesh(t, 6)
	res, err := SeedLines(m, fieldline.FieldFunc(uniformZ),
		func(e int) float64 { return 1 }, defaultCfg(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != 50 {
		t.Errorf("produced %d lines, want 50", len(res.Lines))
	}
	if len(res.SeedElement) != len(res.Lines) {
		t.Error("seed element record length mismatch")
	}
}

func TestSeedLinesZeroFieldErrors(t *testing.T) {
	m := boxMesh(t, 4)
	_, err := SeedLines(m, fieldline.FieldFunc(func(vec.V3) vec.V3 { return vec.V3{} }),
		func(e int) float64 { return 0 }, defaultCfg(10))
	if err == nil {
		t.Error("zero field accepted")
	}
}

// The paper's central seeding property: at moderate line counts, line
// density tracks field magnitude — "the density of field lines is
// approximately proportional to the local magnitude of the underlying
// field". With a field 4x stronger in the upper half and a line budget
// before saturation, upper elements see ~4x the line visits. (At very
// large budgets the greedy fills weak regions too — "the less strong
// regions start to fill in" — so the ratio is budget-dependent by
// design; this test probes the proportional regime.)
func TestSeedingDensityProportionality(t *testing.T) {
	m := boxMesh(t, 6)
	field := fieldline.FieldFunc(splitField)
	intensity := func(e int) float64 { return splitField(m.Elements[e].Center).Len() }
	res, err := SeedLines(m, field, intensity, defaultCfg(40))
	if err != nil {
		t.Fatal(err)
	}
	var upper, lower float64
	for e := range m.Elements {
		if m.Elements[e].Center.Y > 0.5 {
			upper += res.Visits[e]
		} else {
			lower += res.Visits[e]
		}
	}
	if lower == 0 {
		t.Fatal("no lines in the weak half")
	}
	ratio := upper / lower
	if ratio < 2.5 || ratio > 8 {
		t.Errorf("upper/lower visit ratio %.2f, want ~4 (field ratio)", ratio)
	}
}

// As the budget grows past the proportional regime, weak regions fill
// in — the incremental-animation behavior of Fig 7 ("as more field
// lines are added ... the less strong regions start to fill in").
func TestWeakRegionsFillInWithBudget(t *testing.T) {
	m := boxMesh(t, 6)
	intensity := func(e int) float64 { return splitField(m.Elements[e].Center).Len() }
	lowerShare := func(budget int) float64 {
		res, err := SeedLines(m, fieldline.FieldFunc(splitField), intensity, defaultCfg(budget))
		if err != nil {
			t.Fatal(err)
		}
		lowSeeds := 0
		for _, se := range res.SeedElement {
			if m.Elements[se].Center.Y <= 0.5 {
				lowSeeds++
			}
		}
		return float64(lowSeeds) / float64(len(res.Lines))
	}
	early := lowerShare(20)
	late := lowerShare(200)
	if late <= early {
		t.Errorf("weak-region seed share did not grow: %.2f (20 lines) -> %.2f (200 lines)", early, late)
	}
}

// The incremental property: the first lines seed in the strongest
// region ("the lines corresponding to the highest magnitude field
// regions being loaded first").
func TestStrongRegionsSeededFirst(t *testing.T) {
	m := boxMesh(t, 8)
	intensity := func(e int) float64 { return splitField(m.Elements[e].Center).Len() }
	res, err := SeedLines(m, fieldline.FieldFunc(splitField), intensity, defaultCfg(100))
	if err != nil {
		t.Fatal(err)
	}
	// The first 10 seeds must all be in the strong half.
	for i := 0; i < 10 && i < len(res.SeedElement); i++ {
		if m.Elements[res.SeedElement[i]].Center.Y <= 0.5 {
			t.Errorf("seed %d placed in the weak half", i)
		}
	}
}

// Prefix supersets: "the set of field lines in each image in the
// sequence is a superset of those field lines in the preceding image".
func TestSeedingPrefixSuperset(t *testing.T) {
	m := boxMesh(t, 6)
	res, err := SeedLines(m, fieldline.FieldFunc(uniformZ),
		func(e int) float64 { return 1 }, defaultCfg(40))
	if err != nil {
		t.Fatal(err)
	}
	p10 := res.Prefix(10)
	p20 := res.Prefix(20)
	for i := range p10 {
		if p10[i] != p20[i] {
			t.Fatalf("prefix 20 does not extend prefix 10 at %d", i)
		}
	}
	if len(res.Prefix(10000)) != len(res.Lines) {
		t.Error("oversized prefix not clamped")
	}
	if len(res.Prefix(-1)) != 0 {
		t.Error("negative prefix not clamped")
	}
}

// Density correlation must be positive and improve (or stay high) as
// more lines load — the "always nearly correct" claim of §3.2.
func TestDensityCorrelationAtPrefixes(t *testing.T) {
	// Coarse mesh: desired counts of a few lines per element, the
	// regime where per-element correlation is meaningful.
	m := boxMesh(t, 4)
	intensity := func(e int) float64 { return splitField(m.Elements[e].Center).Len() }
	res, err := SeedLines(m, fieldline.FieldFunc(splitField), intensity, defaultCfg(400))
	if err != nil {
		t.Fatal(err)
	}
	full := res.DensityCorrelation(m, len(res.Lines))
	half := res.DensityCorrelation(m, len(res.Lines)/2)
	if full < 0.7 {
		t.Errorf("full correlation %.3f too weak", full)
	}
	if half < 0.3 {
		t.Errorf("half-prefix correlation %.3f too weak for incremental correctness", half)
	}
}

func TestSeedingDeterministic(t *testing.T) {
	m := boxMesh(t, 6)
	run := func() *Result {
		res, err := SeedLines(m, fieldline.FieldFunc(uniformZ),
			func(e int) float64 { return 1 }, defaultCfg(30))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Lines) != len(b.Lines) {
		t.Fatal("line counts differ")
	}
	for i := range a.Lines {
		if a.SeedElement[i] != b.SeedElement[i] {
			t.Fatalf("seed order differs at %d", i)
		}
		if a.Lines[i].Points[0] != b.Lines[i].Points[0] {
			t.Fatalf("seed points differ at %d", i)
		}
	}
}

func TestLinesStayInsideMesh(t *testing.T) {
	m := boxMesh(t, 6)
	res, err := SeedLines(m, fieldline.FieldFunc(uniformZ),
		func(e int) float64 { return 1 }, defaultCfg(30))
	if err != nil {
		t.Fatal(err)
	}
	for li, line := range res.Lines {
		for _, p := range line.Points {
			if !m.Inside(p) {
				t.Fatalf("line %d left the mesh at %v", li, p)
			}
		}
	}
}

func TestSeedingOnCavityMesh(t *testing.T) {
	// End-to-end sanity on real cavity geometry with an analytic
	// standing-wave-like field.
	cav := hexmesh.DefaultCavity(6)
	m, err := hexmesh.BuildCavity(cav)
	if err != nil {
		t.Fatal(err)
	}
	field := fieldline.FieldFunc(func(p vec.V3) vec.V3 {
		return vec.New(0, 0, math.Cos(math.Pi*p.Z/cav.TotalLength()))
	})
	intensity := func(e int) float64 { return field.At(m.Elements[e].Center).Len() }
	cfg := defaultCfg(40)
	cfg.Trace.Step = m.MinSpacing() / 2
	res, err := SeedLines(m, field, intensity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) == 0 {
		t.Fatal("no lines on cavity mesh")
	}
	for li, line := range res.Lines {
		for _, p := range line.Points {
			if !m.Inside(p) {
				t.Fatalf("line %d escaped into conductor at %v", li, p)
			}
		}
	}
}

// boxedHeap is needHeap behind container/heap's interface — what the
// seeding loop used before its heap was written out for the concrete
// type, and so the definition of the order it must keep.
type boxedHeap []need

func (h boxedHeap) Len() int            { return len(h) }
func (h boxedHeap) Less(i, j int) bool  { return h[i].priority > h[j].priority }
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(need)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// TestNeedHeapMatchesContainerHeap: the concrete heap pops the same
// element as container/heap after every operation of a long random
// schedule full of equal priorities — ties are where a different sift
// order would show, and the seeding order depends on them.
func TestNeedHeapMatchesContainerHeap(t *testing.T) {
	rng := uint64(99)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	var a needHeap
	var b boxedHeap
	for e := 0; e < 500; e++ {
		x := need{e, float64(next(8))} // eight distinct priorities: ties everywhere
		a = append(a, x)
		b = append(b, x)
	}
	a.init()
	heap.Init(&b)
	for op := 0; op < 20000; op++ {
		if len(a) != len(b) {
			t.Fatalf("op %d: lengths %d and %d", op, len(a), len(b))
		}
		if len(a) > 0 && next(3) > 0 {
			x, y := a.pop(), heap.Pop(&b).(need)
			if x != y {
				t.Fatalf("op %d: popped %+v, container/heap %+v", op, x, y)
			}
			if next(2) == 0 { // the loop's own pattern: pop, then push the same element back lower
				x.priority -= float64(next(3))
				a.push(x)
				heap.Push(&b, x)
			}
		} else {
			x := need{1000 + op, float64(next(8)) - 3}
			a.push(x)
			heap.Push(&b, x)
		}
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("heap arrays differ at %d: %+v, container/heap %+v", i, a[i], b[i])
		}
	}
}

// TestResultLinesAreSlabWindows: every line is a window into one slab
// the result owns — consecutive, covering it exactly, and capped so an
// append to one line cannot reach the next.
func TestResultLinesAreSlabWindows(t *testing.T) {
	m := boxMesh(t, 6)
	res, err := SeedLines(m, fieldline.FieldFunc(splitField),
		func(e int) float64 { return splitField(m.Elements[e].Center).Len() }, defaultCfg(60))
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i, l := range res.Lines {
		n := l.NumPoints()
		if n < 2 || len(l.Tangents) != n || len(l.Strengths) != n {
			t.Fatalf("line %d: %d/%d/%d samples", i, n, len(l.Tangents), len(l.Strengths))
		}
		if &l.Points[0] != &res.slab.Points[off] || &l.Tangents[0] != &res.slab.Tangents[off] || &l.Strengths[0] != &res.slab.Strengths[off] {
			t.Fatalf("line %d does not start at slab offset %d", i, off)
		}
		if cap(l.Points) != n || cap(l.Tangents) != n || cap(l.Strengths) != n {
			t.Fatalf("line %d: capacity runs past its window", i)
		}
		off += n
	}
	if off != res.slab.Len() {
		t.Errorf("lines cover %d samples, slab holds %d: a rolled-back attempt leaked", off, res.slab.Len())
	}
	if res.Attempts < len(res.Lines) {
		t.Errorf("%d attempts for %d lines", res.Attempts, len(res.Lines))
	}
}

// BenchmarkSeedLines times the seeding loop on the benchmark's
// structure (3-cell cavity, 16 cells per radius, 1000 bidirectional
// lines) over two snapshots of one solve: frame 0, a quarter period in,
// where the field has only just entered through the ports and most
// seed attempts are degenerate, and a steady frame four periods in.
// attempts/op against the 1000 lines kept is the work the ramp wastes.
func BenchmarkSeedLines(b *testing.B) {
	cav := hexmesh.DefaultCavity(16)
	m, err := hexmesh.BuildCavity(cav)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := emsim.New(emsim.DefaultConfig(m, cav))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		periods float64
	}{{"frame0", 0.25}, {"steady", 3.75}} {
		sim.AdvancePeriods(c.periods)
		frame := sim.Snapshot()
		cfg := Config{
			TotalLines:    1000,
			Trace:         fieldline.Config{Step: m.MinSpacing() / 2, MaxSteps: 600, MinMag: frame.MaxE() * 1e-4},
			Seed:          1,
			Bidirectional: true,
		}
		field := fieldline.FieldFunc(frame.SampleE)
		intensity := func(e int) float64 { return frame.ElementEMagnitude(e) }
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var attempts, points int
			for i := 0; i < b.N; i++ {
				res, err := SeedLines(m, field, intensity, cfg)
				if err != nil {
					b.Fatal(err)
				}
				attempts = res.Attempts
				points = res.slab.Len()
			}
			b.ReportMetric(float64(attempts), "attempts/op")
			b.ReportMetric(float64(points), "points/op")
		})
	}
}
