package octree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

// compact3 inverts spread3.
func compact3(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x1f0000ff0000ff
	x = (x | x>>16) & 0x1f00000000ffff
	x = (x | x>>32) & 0x1fffff
	return x
}

// Decode recovers the three cell coordinates from a Morton code.
func Decode(code uint64) (x, y, z uint64) {
	return compact3(code), compact3(code >> 1), compact3(code >> 2)
}

func TestMortonRoundTrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		xi := uint64(x) & 0x1fffff
		yi := uint64(y) & 0x1fffff
		zi := uint64(z) & 0x1fffff
		gx, gy, gz := Decode(Encode(xi, yi, zi))
		return gx == xi && gy == yi && gz == zi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMortonOrderingMatchesOctants(t *testing.T) {
	// The first 8 codes must equal the octant indices of the 2x2x2 grid.
	for z := uint64(0); z < 2; z++ {
		for y := uint64(0); y < 2; y++ {
			for x := uint64(0); x < 2; x++ {
				want := x | y<<1 | z<<2
				if got := Encode(x, y, z); got != want {
					t.Errorf("Encode(%d,%d,%d) = %d, want %d", x, y, z, got, want)
				}
			}
		}
	}
}

func TestChildAt(t *testing.T) {
	// Code for cell (3, 1, 0) at maxLevel 2: x=11b, y=01b, z=00b.
	code := Encode(3, 1, 0)
	// Level 0 child: top bits (x=1, y=0, z=0) -> 1.
	if got := childAt(code, 0, 2); got != 1 {
		t.Errorf("level-0 child = %d, want 1", got)
	}
	// Level 1 child: low bits (x=1, y=1, z=0) -> 3.
	if got := childAt(code, 1, 2); got != 3 {
		t.Errorf("level-1 child = %d, want 3", got)
	}
}

func randomPoints(n int, seed int64) []vec.V3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.V3, n)
	for i := range pts {
		// A Gaussian ball plus a sparse uniform halo, mimicking the
		// core/halo structure of the beam data.
		if rng.Float64() < 0.9 {
			pts[i] = vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		} else {
			pts[i] = vec.New(
				(rng.Float64()*2-1)*8,
				(rng.Float64()*2-1)*8,
				(rng.Float64()*2-1)*8,
			)
		}
	}
	return pts
}

func TestBuildValidates(t *testing.T) {
	pts := randomPoints(20000, 1)
	tree, err := Build(pts, DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuildPreservesPoints(t *testing.T) {
	pts := randomPoints(5000, 2)
	tree, err := Build(pts, DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(tree.Points) != len(pts) {
		t.Fatalf("tree has %d points, want %d", len(tree.Points), len(pts))
	}
	// Every original index appears exactly once and maps to its point.
	seen := make(map[int64]bool, len(pts))
	for i, oi := range tree.OrigIndex {
		if seen[oi] {
			t.Fatalf("original index %d appears twice", oi)
		}
		seen[oi] = true
		if tree.Points[i] != pts[oi] {
			t.Fatalf("reordered point %d does not match original %d", i, oi)
		}
	}
}

func TestBuildRespectsMaxLevel(t *testing.T) {
	pts := randomPoints(50000, 3)
	cfg := DefaultConfig()
	cfg.MaxLevel = 3
	cfg.LeafCap = 1 // force subdivision to the level cap
	tree, err := Build(pts, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if d := tree.MaxDepth(); d > 3 {
		t.Errorf("depth %d exceeds max level 3", d)
	}
}

func TestBuildRespectsLeafCap(t *testing.T) {
	pts := randomPoints(20000, 4)
	cfg := DefaultConfig()
	cfg.MaxLevel = 12
	cfg.LeafCap = 32
	tree, err := Build(pts, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Leaves may exceed the cap only at the max level.
	for k := 0; k < tree.NumLeaves(); k++ {
		leaf := tree.Leaf(k)
		if leaf.Count > 32 && int(leaf.Level) < cfg.MaxLevel {
			t.Errorf("leaf at level %d holds %d points (cap 32) but is not at max level",
				leaf.Level, leaf.Count)
		}
	}
}

func TestLeafDensityOrdering(t *testing.T) {
	pts := randomPoints(30000, 5)
	tree, err := Build(pts, DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	prev := math.Inf(-1)
	for k := 0; k < tree.NumLeaves(); k++ {
		d := tree.Leaf(k).Density
		if d < prev {
			t.Fatalf("leaf %d density %g < previous %g", k, d, prev)
		}
		prev = d
	}
}

// The paper's central storage property: for ANY threshold, the halo
// points form a contiguous prefix of the point array.
func TestExtractionPrefixProperty(t *testing.T) {
	pts := randomPoints(30000, 6)
	tree, err := Build(pts, DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Collect all distinct leaf densities and probe thresholds around them.
	ds := []float64{0}
	for k := 0; k < tree.NumLeaves(); k++ {
		ds = append(ds, tree.Leaf(k).Density)
	}
	ds = append(ds, math.Inf(1))
	for _, threshold := range ds {
		cut := tree.CutLeaf(threshold)
		end := tree.LeafOffsets[cut]
		// Every point before end must come from a leaf below threshold;
		// every point after must not.
		for k := 0; k < tree.NumLeaves(); k++ {
			leaf := tree.Leaf(k)
			below := leaf.Density < threshold
			inPrefix := leaf.Offset < end
			if below != inPrefix {
				t.Fatalf("threshold %g: leaf %d (density %g, offset %d) prefix membership wrong",
					threshold, k, leaf.Density, leaf.Offset)
			}
		}
	}
}

// HaloCount returns how many points an extraction at the given
// threshold would keep, without materializing them.
func (t *Tree) HaloCount(threshold float64) int64 {
	return t.LeafOffsets[t.CutLeaf(threshold)]
}

func TestHaloCountMonotonic(t *testing.T) {
	pts := randomPoints(20000, 7)
	tree, err := Build(pts, DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	prev := int64(-1)
	for _, th := range []float64{0, 0.001, 0.01, 0.1, 1, 10, 100, 1e6, math.Inf(1)} {
		c := tree.HaloCount(th)
		if c < prev {
			t.Fatalf("HaloCount(%g) = %d < previous %d", th, c, prev)
		}
		prev = c
	}
	if got := tree.HaloCount(math.Inf(1)); got != int64(len(pts)) {
		t.Errorf("HaloCount(inf) = %d, want all %d", got, len(pts))
	}
	if got := tree.HaloCount(0); got != 0 {
		t.Errorf("HaloCount(0) = %d, want 0", got)
	}
}

func TestHaloPointsComeFromSparseRegions(t *testing.T) {
	pts := randomPoints(50000, 8)
	tree, err := Build(pts, DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Choose a threshold keeping ~10% of points.
	th := tree.ThresholdForBudget(int64(len(pts) / 10))
	// Leaf groups are stored in increasing-density order, so the halo
	// is a zero-copy contiguous prefix of the point array.
	halo := tree.Points[:tree.HaloCount(th)]
	if len(halo) == 0 {
		t.Fatal("no halo points at 10% budget")
	}
	// Halo points should be far from the origin on average compared to
	// the full set (the Gaussian core is at the origin).
	var haloR, allR float64
	for _, p := range halo {
		haloR += p.Len()
	}
	haloR /= float64(len(halo))
	for _, p := range pts {
		allR += p.Len()
	}
	allR /= float64(len(pts))
	if haloR <= allR {
		t.Errorf("mean halo radius %.2f <= mean radius %.2f; halo should be the sparse outskirts",
			haloR, allR)
	}
}

func TestThresholdForBudget(t *testing.T) {
	pts := randomPoints(30000, 9)
	tree, err := Build(pts, DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, budget := range []int64{0, 1, 100, 5000, 29999, 30000} {
		th := tree.ThresholdForBudget(budget)
		if got := tree.HaloCount(th); got > budget {
			t.Errorf("budget %d: threshold %g keeps %d points", budget, th, got)
		}
	}
	// The full budget must admit every point.
	th := tree.ThresholdForBudget(int64(len(pts)))
	if got := tree.HaloCount(th); got != int64(len(pts)) {
		t.Errorf("full budget keeps %d of %d points", got, len(pts))
	}
}

func TestBuildEmptyInput(t *testing.T) {
	if _, err := Build(nil, DefaultConfig()); err == nil {
		t.Error("Build accepted empty input")
	}
}

func TestBuildCoincidentPoints(t *testing.T) {
	pts := make([]vec.V3, 1000)
	for i := range pts {
		pts[i] = vec.New(1, 2, 3)
	}
	tree, err := Build(pts, DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tree.NumLeaves() != 1 {
		t.Errorf("coincident points spread over %d leaves", tree.NumLeaves())
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig(), true},
		{"zero level", Config{MaxLevel: 0, LeafCap: 1}, false},
		{"too deep", Config{MaxLevel: 22, LeafCap: 1}, false},
		{"zero cap", Config{MaxLevel: 4, LeafCap: 0}, false},
		{"negative pad", Config{MaxLevel: 4, LeafCap: 1, Pad: -1}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// Property test: build on random inputs always yields a valid tree
// whose HaloCount at the median density matches a direct count.
func TestBuildPropertyRandom(t *testing.T) {
	f := func(seed int64, n16 uint16) bool {
		n := int(n16%3000) + 1
		pts := randomPoints(n, seed)
		cfg := DefaultConfig()
		cfg.MaxLevel = 5
		tree, err := Build(pts, cfg)
		if err != nil {
			return false
		}
		if tree.Validate() != nil {
			return false
		}
		// Direct count must agree with the offset table.
		densities := make([]float64, tree.NumLeaves())
		for k := range densities {
			densities[k] = tree.Leaf(k).Density
		}
		if len(densities) == 0 {
			return false
		}
		sort.Float64s(densities)
		th := densities[len(densities)/2]
		var direct int64
		for k := 0; k < tree.NumLeaves(); k++ {
			if tree.Leaf(k).Density < th {
				direct += tree.Leaf(k).Count
			}
		}
		return direct == tree.HaloCount(th)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicBuild(t *testing.T) {
	pts := randomPoints(5000, 11)
	a, err1 := Build(pts, DefaultConfig())
	b, err2 := Build(pts, DefaultConfig())
	if err1 != nil || err2 != nil {
		t.Fatalf("Build: %v %v", err1, err2)
	}
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] || a.OrigIndex[i] != b.OrigIndex[i] {
			t.Fatalf("build not deterministic at point %d", i)
		}
	}
}

// §2.5: "the octree must be subdivided more finely where there is a
// high gradient ... If a higher level of subdivision is not used, the
// outline of the lowest level octree nodes will be visible at the
// boundary of the halo region." Deeper subdivision must shrink the
// cells that straddle the core/halo density boundary.
func TestDeeperSubdivisionRefinesHaloBoundary(t *testing.T) {
	pts := randomPoints(60000, 13)
	// The high-gradient region is the edge of the Gaussian core
	// (radius ~2); measure the mean leaf size there.
	boundaryCellSize := func(maxLevel int) float64 {
		cfg := DefaultConfig()
		cfg.MaxLevel = maxLevel
		cfg.LeafCap = 32
		tree, err := Build(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		count := 0
		for k := 0; k < tree.NumLeaves(); k++ {
			leaf := tree.Leaf(k)
			r := leaf.Bounds.Center().Len()
			if r > 1.5 && r < 2.5 {
				sum += leaf.Bounds.Size().X
				count++
			}
		}
		if count == 0 {
			t.Fatal("no leaves in the core-edge shell")
		}
		return sum / float64(count)
	}
	coarse := boundaryCellSize(4)
	fine := boundaryCellSize(8)
	if fine >= coarse {
		t.Errorf("deeper octree did not refine the halo boundary: level 4 cells %.4f, level 8 cells %.4f",
			coarse, fine)
	}
}
