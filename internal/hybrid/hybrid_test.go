package hybrid

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/octree"
	"repro/internal/vec"
)

func unitBox() vec.AABB { return vec.Box(vec.New(0, 0, 0), vec.New(1, 1, 1)) }

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 4, 4, unitBox()); err == nil {
		t.Error("accepted zero resolution")
	}
	if _, err := NewGrid(4, 4, 4, vec.Empty()); err == nil {
		t.Error("accepted empty bounds")
	}
}

// Set stores a voxel value; coordinates must be in range.
func (g *Grid) Set(x, y, z int, v float32) {
	g.Data[(z*g.Ny+y)*g.Nx+x] = v
}

// TotalMass returns the sum of all voxel values. Cloud-in-cell
// deposits conserve mass for interior points, which the tests verify.
func (g *Grid) TotalMass() float64 {
	var sum float64
	for _, v := range g.Data {
		sum += float64(v)
	}
	return sum
}

// GrayMap returns a linear grayscale ramp.
func GrayMap() ColorMap {
	return ColorMap{Stops: []RGBA{{0, 0, 0, 1}, {1, 1, 1, 1}}}
}

// Sample is one Sampler.Sample on a fresh sampler.
func (g *Grid) Sample(p vec.V3) float64 {
	s := g.Sampler()
	return s.Sample(p)
}

func TestGridSetAtSample(t *testing.T) {
	g, err := NewGrid(4, 4, 4, unitBox())
	if err != nil {
		t.Fatal(err)
	}
	g.Set(1, 2, 3, 5)
	if got := g.At(1, 2, 3); got != 5 {
		t.Errorf("At = %v, want 5", got)
	}
	// At clamps out-of-range coordinates.
	if got := g.At(-1, 2, 3); got != g.At(0, 2, 3) {
		t.Errorf("clamping failed: %v vs %v", got, g.At(0, 2, 3))
	}
	// Sampling exactly at the voxel center recovers the stored value.
	center := vec.New((1.0+0.5)/4, (2.0+0.5)/4, (3.0+0.5)/4)
	if got := g.Sample(center); math.Abs(got-5) > 1e-12 {
		t.Errorf("Sample(center) = %v, want 5", got)
	}
	// Outside the bounds sampling yields 0.
	if got := g.Sample(vec.New(2, 2, 2)); got != 0 {
		t.Errorf("Sample(outside) = %v, want 0", got)
	}
}

func TestSampleInterpolatesLinearly(t *testing.T) {
	g, err := NewGrid(2, 1, 1, unitBox())
	if err != nil {
		t.Fatal(err)
	}
	g.Set(0, 0, 0, 0)
	g.Set(1, 0, 0, 1)
	// Halfway between the two voxel centers (x=0.25 and x=0.75).
	if got := g.Sample(vec.New(0.5, 0.5, 0.5)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("midpoint sample = %v, want 0.5", got)
	}
	// Quarter of the way.
	if got := g.Sample(vec.New(0.375, 0.5, 0.5)); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("quarter sample = %v, want 0.25", got)
	}
}

func TestSplatConservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]vec.V3, 5000)
	for i := range pts {
		// Keep points well inside so no CIC weight falls off the grid.
		pts[i] = vec.New(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64())
	}
	g, err := Splat(pts, unitBox(), 16, 16, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.TotalMass(); math.Abs(got-5000) > 0.5 {
		t.Errorf("total mass = %v, want 5000", got)
	}
}

func TestSplatDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]vec.V3, 3000)
	for i := range pts {
		pts[i] = vec.New(rng.Float64(), rng.Float64(), rng.Float64())
	}
	g1, err := Splat(pts, unitBox(), 8, 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	g4, err := Splat(pts, unitBox(), 8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1.Data {
		if math.Abs(float64(g1.Data[i]-g4.Data[i])) > 1e-3 {
			t.Fatalf("voxel %d differs between 1 and 4 workers: %v vs %v", i, g1.Data[i], g4.Data[i])
		}
	}
}

func TestSplatEmpty(t *testing.T) {
	g, err := Splat(nil, unitBox(), 4, 4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalMass() != 0 {
		t.Error("empty splat has mass")
	}
}

func TestNormalize(t *testing.T) {
	g, _ := NewGrid(2, 2, 2, unitBox())
	g.Set(0, 0, 0, 4)
	g.Set(1, 1, 1, 2)
	factor := g.Normalize()
	if factor != 4 {
		t.Errorf("factor = %v, want 4", factor)
	}
	if g.MaxValue() != 1 {
		t.Errorf("max after normalize = %v", g.MaxValue())
	}
	// All-zero grid: factor 0, unchanged.
	z, _ := NewGrid(2, 2, 2, unitBox())
	if f := z.Normalize(); f != 0 {
		t.Errorf("zero-grid factor = %v", f)
	}
}

func TestScalarTFValidation(t *testing.T) {
	if _, err := NewScalarTF([]float64{0}, []float64{1}); err == nil {
		t.Error("accepted single stop")
	}
	if _, err := NewScalarTF([]float64{0, 0}, []float64{0, 1}); err == nil {
		t.Error("accepted non-increasing positions")
	}
	if _, err := NewScalarTF([]float64{0, 2}, []float64{0, 1}); err == nil {
		t.Error("accepted out-of-range position")
	}
	if _, err := NewScalarTF([]float64{0, 1}, []float64{0, 2}); err == nil {
		t.Error("accepted out-of-range value")
	}
}

func TestScalarTFEval(t *testing.T) {
	tf, err := NewScalarTF([]float64{0.2, 0.4, 0.8}, []float64{0, 1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0.0, 0},    // clamp below
		{0.2, 0},    // first stop
		{0.3, 0.5},  // mid first segment
		{0.4, 1},    // second stop
		{0.6, 0.75}, // mid second segment
		{0.8, 0.5},  // last stop
		{1.0, 0.5},  // clamp above
	}
	for _, c := range cases {
		if got := tf.Eval(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestStepRamp(t *testing.T) {
	tf, err := StepRamp(0.1, 0.3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := tf.Eval(0.05); got != 0 {
		t.Errorf("below lo: %v", got)
	}
	if got := tf.Eval(0.2); math.Abs(got-0.025) > 1e-12 {
		t.Errorf("mid ramp: %v, want 0.025", got)
	}
	if got := tf.Eval(0.9); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("above hi: %v, want 0.05", got)
	}
	if _, err := StepRamp(0.5, 0.2, 1); err == nil {
		t.Error("accepted lo > hi")
	}
}

func TestColorMapEndpoints(t *testing.T) {
	cm := HeatMap()
	lo := cm.Eval(0)
	hi := cm.Eval(1)
	if lo != cm.Stops[0] {
		t.Errorf("Eval(0) = %v", lo)
	}
	if hi != cm.Stops[len(cm.Stops)-1] {
		t.Errorf("Eval(1) = %v", hi)
	}
	// Monotone red increase for the heat map.
	if cm.Eval(0.2).R >= cm.Eval(0.9).R {
		t.Error("heat map red channel not increasing")
	}
}

func newTestLinked(t *testing.T) *LinkedTF {
	t.Helper()
	vol, err := StepRamp(0.1, 0.3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLinkedTF(vol, GrayMap(), 0.08, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLinkedTFStartsComplementary(t *testing.T) {
	l := newTestLinked(t)
	if !l.Complementary() {
		t.Error("fresh linked TF not complementary")
	}
}

// Fig 3(b) property: under any sequence of linked edits to either
// profile, point fraction and volume weight remain exact complements.
func TestLinkedTFInverseLinkProperty(t *testing.T) {
	f := func(edits []struct {
		OnVolume bool
		Stop     uint8
		Val      float64
	}) bool {
		l := newTestLinked(t)
		for _, e := range edits {
			i := int(e.Stop) % len(l.Volume.Val)
			v := math.Abs(math.Mod(e.Val, 1))
			if e.OnVolume {
				if err := l.SetVolumeStop(i, v); err != nil {
					return false
				}
			} else if err := l.SetVolumeStop(i, 1-v); err != nil {
				return false
			}
			if !l.Complementary() {
				return false
			}
		}
		// The evaluated profiles must also sum to 1 everywhere (same
		// stop positions, complementary values, linear interpolation).
		for x := 0.0; x <= 1.0; x += 0.01 {
			if math.Abs(l.Volume.Eval(x)+l.Point.Eval(x)-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLinkedTFUnlinkedEditsIndependent(t *testing.T) {
	l := newTestLinked(t)
	l.Linked = false
	if err := l.SetVolumeStop(0, 0.7); err != nil {
		t.Fatal(err)
	}
	if l.Complementary() {
		t.Error("unlinked edit still mirrored")
	}
}

func TestPointFractionBeyondBoundary(t *testing.T) {
	l := newTestLinked(t) // boundary 0.35
	if got := l.PointFraction(0.5); got != 0 {
		t.Errorf("fraction beyond boundary = %v, want 0 (no points stored there)", got)
	}
	if got := l.PointFraction(0.05); got <= 0 {
		t.Errorf("fraction in sparse region = %v, want > 0", got)
	}
}

func buildTree(t *testing.T, n int, seed int64) *octree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.V3, n)
	for i := range pts {
		if rng.Float64() < 0.85 {
			pts[i] = vec.New(rng.NormFloat64()*0.3, rng.NormFloat64()*0.3, rng.NormFloat64()*0.3)
		} else {
			pts[i] = vec.New(rng.Float64()*6-3, rng.Float64()*6-3, rng.Float64()*6-3)
		}
	}
	tree, err := octree.Build(pts, octree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestExtractBasics(t *testing.T) {
	tree := buildTree(t, 20000, 3)
	rep, err := Extract(tree, ExtractConfig{VolumeRes: 16, Budget: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumPoints() == 0 || rep.NumPoints() > 5000 {
		t.Errorf("extracted %d points for budget 5000", rep.NumPoints())
	}
	if rep.Volume.MaxValue() != 1 {
		t.Errorf("volume not normalized: max %v", rep.Volume.MaxValue())
	}
	if len(rep.PointDensity) != rep.NumPoints() {
		t.Errorf("density array length %d != point count %d", len(rep.PointDensity), rep.NumPoints())
	}
	// Point densities are normalized and non-decreasing (density order).
	prev := float32(-1)
	for i, d := range rep.PointDensity {
		if d < 0 || d > 1 {
			t.Fatalf("point %d density %v outside [0,1]", i, d)
		}
		if d < prev {
			t.Fatalf("point densities not sorted at %d", i)
		}
		prev = d
	}
}

func TestExtractThresholdVsBudgetAgree(t *testing.T) {
	tree := buildTree(t, 10000, 4)
	byBudget, err := Extract(tree, ExtractConfig{VolumeRes: 8, Budget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	byThreshold, err := Extract(tree, ExtractConfig{VolumeRes: 8, Threshold: byBudget.Threshold})
	if err != nil {
		t.Fatal(err)
	}
	if byBudget.NumPoints() != byThreshold.NumPoints() {
		t.Errorf("budget path kept %d, threshold path kept %d", byBudget.NumPoints(), byThreshold.NumPoints())
	}
}

func TestExtractRejectsTinyVolume(t *testing.T) {
	tree := buildTree(t, 100, 5)
	if _, err := Extract(tree, ExtractConfig{VolumeRes: 1, Budget: 10}); err == nil {
		t.Error("accepted 1-voxel volume")
	}
}

func TestRepresentationRoundTrip(t *testing.T) {
	tree := buildTree(t, 8000, 6)
	rep, err := Extract(tree, ExtractConfig{VolumeRes: 8, Budget: 1500})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if got.NumPoints() != rep.NumPoints() || got.Threshold != rep.Threshold {
		t.Fatalf("round trip changed shape")
	}
	for i := range rep.Points {
		if got.Points[i] != rep.Points[i] || got.PointDensity[i] != rep.PointDensity[i] {
			t.Fatalf("point %d mismatch", i)
		}
	}
	for i := range rep.Volume.Data {
		if got.Volume.Data[i] != rep.Volume.Data[i] {
			t.Fatalf("voxel %d mismatch", i)
		}
	}
}

func TestRepresentationDetectsCorruption(t *testing.T) {
	tree := buildTree(t, 2000, 7)
	rep, err := Extract(tree, ExtractConfig{VolumeRes: 8, Budget: 500})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xA5
	if _, err := DecodeBinary(data); err == nil {
		t.Error("corrupted representation accepted")
	}
}

func TestSizeBytesMatchesEncoding(t *testing.T) {
	tree := buildTree(t, 3000, 8)
	rep, err := Extract(tree, ExtractConfig{VolumeRes: 8, Budget: 700})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != rep.SizeBytes() {
		t.Errorf("encoded %d bytes, SizeBytes says %d", buf.Len(), rep.SizeBytes())
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	tree := buildTree(t, 50000, 9)
	rep, err := Extract(tree, ExtractConfig{VolumeRes: 16, Budget: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if f := float64(50000*48) / float64(rep.SizeBytes()); f <= 1 {
		t.Errorf("compression factor %v <= 1; hybrid bigger than raw", f)
	}
}

func TestSelectPointsFraction(t *testing.T) {
	// Build a representation with uniform density so the TF fraction
	// applies to all points equally.
	rep := &Representation{
		Points:       make([]vec.V3, 10000),
		PointDensity: make([]float32, 10000),
	}
	for i := range rep.PointDensity {
		rep.PointDensity[i] = 0.1
	}
	vol, err := NewScalarTF([]float64{0, 1}, []float64{0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLinkedTF(vol, GrayMap(), 0.1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Point fraction = 1 - 0.25 = 0.75: expect ~3 of 4 points drawn.
	sel := rep.SelectPoints(l)
	frac := float64(len(sel)) / 10000
	if math.Abs(frac-0.75) > 0.01 {
		t.Errorf("selected fraction %v, want ~0.75", frac)
	}
	// Determinism.
	sel2 := rep.SelectPoints(l)
	if len(sel) != len(sel2) {
		t.Error("selection not deterministic")
	}
}

// TestSelectPointsOffsetSplitEquivalence is the guarantee the
// sort-last distributed render leans on: splitting a frame's points
// into contiguous ranges and selecting each range at its own global
// offset draws exactly the points the undivided selection draws.
func TestSelectPointsOffsetSplitEquivalence(t *testing.T) {
	n := 5000
	rep := &Representation{
		Points:       make([]vec.V3, n),
		PointDensity: make([]float32, n),
	}
	for i := range rep.PointDensity {
		rep.PointDensity[i] = float32(i%7) / 10
	}
	vol, err := NewScalarTF([]float64{0, 1}, []float64{0.6, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLinkedTF(vol, GrayMap(), 0.1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	want := rep.SelectPoints(l)
	if len(want) == 0 || len(want) == n {
		t.Fatalf("degenerate selection: %d of %d", len(want), n)
	}
	for _, parts := range []int{1, 2, 3, 8} {
		var got []int
		for k := 0; k < parts; k++ {
			lo, hi := k*n/parts, (k+1)*n/parts
			sub := &Representation{Points: rep.Points[lo:hi], PointDensity: rep.PointDensity[lo:hi]}
			for _, i := range sub.SelectPointsOffset(l, lo) {
				got = append(got, lo+i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("parts=%d: selected %d points, want %d", parts, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("parts=%d: selection %d is point %d, want %d", parts, j, got[j], want[j])
			}
		}
	}
}

func TestSelectPointsExtremes(t *testing.T) {
	rep := &Representation{
		Points:       make([]vec.V3, 100),
		PointDensity: make([]float32, 100),
	}
	all, err := NewScalarTF([]float64{0, 1}, []float64{0, 0}) // volume weight 0 -> point fraction 1
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLinkedTF(all, GrayMap(), 0.1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.SelectPoints(l)); got != 100 {
		t.Errorf("fraction 1 selected %d of 100", got)
	}
	none, err := NewScalarTF([]float64{0, 1}, []float64{1, 1}) // point fraction 0
	if err != nil {
		t.Fatal(err)
	}
	l2, err := NewLinkedTF(none, GrayMap(), 0.1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.SelectPoints(l2)); got != 0 {
		t.Errorf("fraction 0 selected %d", got)
	}
}

// §2.5: "Because the output data size does not necessarily depend on
// the input data size, large simulations ... can be reduced to the
// same size hybrid representation as the smaller simulations."
func TestOutputSizeIndependentOfInputSize(t *testing.T) {
	sizes := []int{20000, 80000}
	const budget = 3000
	var reps []*Representation
	for _, n := range sizes {
		tree := buildTree(t, n, int64(n))
		rep, err := Extract(tree, ExtractConfig{VolumeRes: 16, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	// Same volume resolution, same point budget: sizes within 25% of
	// each other even though the inputs differ 4x.
	a, b := reps[0].SizeBytes(), reps[1].SizeBytes()
	ratio := float64(b) / float64(a)
	if ratio > 1.25 || ratio < 0.75 {
		t.Errorf("hybrid sizes %d vs %d (ratio %.2f) for 4x different inputs", a, b, ratio)
	}
}

// referenceSample is Grid.Sample as it was before Sampler: bounds
// re-read per call, every voxel through the clamping At.
func referenceSample(g *Grid, p vec.V3) float64 {
	if !g.Bounds.Contains(p) {
		return 0
	}
	n := normalize(g.Bounds, p)
	fx := n.X*float64(g.Nx) - 0.5
	fy := n.Y*float64(g.Ny) - 0.5
	fz := n.Z*float64(g.Nz) - 0.5
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	z0 := int(math.Floor(fz))
	tx := fx - float64(x0)
	ty := fy - float64(y0)
	tz := fz - float64(z0)

	lerp := func(a, b float32, t float64) float64 {
		return float64(a) + t*(float64(b)-float64(a))
	}
	c00 := lerp(g.At(x0, y0, z0), g.At(x0+1, y0, z0), tx)
	c10 := lerp(g.At(x0, y0+1, z0), g.At(x0+1, y0+1, z0), tx)
	c01 := lerp(g.At(x0, y0, z0+1), g.At(x0+1, y0, z0+1), tx)
	c11 := lerp(g.At(x0, y0+1, z0+1), g.At(x0+1, y0+1, z0+1), tx)
	c0 := c00 + ty*(c10-c00)
	c1 := c01 + ty*(c11-c01)
	return c0 + tz*(c1-c0)
}

// TestSampleMatchesReference holds the sampler's interior fast path to
// the clamped path bit for bit: inside, on faces and corners, in the
// half-voxel rim where the clamps act, and just outside.
func TestSampleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	boxes := []vec.AABB{
		vec.Box(vec.New(-1, -0.8, -1.2), vec.New(1, 0.8, 1.2)),
		vec.Box(vec.New(3.1, -7, 0.001), vec.New(3.4, 11, 0.002)),
		vec.Box(vec.New(-1, -1, 0), vec.New(1, 1, 0)), // flat: sampled at mid-grid
	}
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 9, 17}, {16, 16, 16}} {
		for _, box := range boxes {
			g, err := NewGrid(dims[0], dims[1], dims[2], box)
			if err != nil {
				t.Fatal(err)
			}
			for i := range g.Data {
				g.Data[i] = rng.Float32() - 0.2
			}
			s := g.Sampler()
			size := box.Size()
			for i := 0; i < 4000; i++ {
				// u in [-0.05, 1.05], snapped to a face one time in four.
				u := [3]float64{}
				for k := range u {
					u[k] = -0.05 + 1.1*rng.Float64()
					switch rng.Intn(8) {
					case 0:
						u[k] = 0
					case 1:
						u[k] = 1
					}
				}
				p := vec.New(box.Min.X+u[0]*size.X, box.Min.Y+u[1]*size.Y, box.Min.Z+u[2]*size.Z)
				got, want := s.Sample(p), referenceSample(g, p)
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(g.Sample(p)) != math.Float64bits(want) {
					t.Fatalf("%v grid over %v at %v: Sample %v, reference %v", dims, box, p, got, want)
				}
			}
		}
	}
	nan := math.NaN()
	g, _ := NewGrid(4, 4, 4, boxes[0])
	if v := g.Sample(vec.New(nan, 0, 0)); v != 0 {
		t.Errorf("NaN position sampled %v, want 0", v)
	}
}

// TestScalarTFEvalMatchesSearch holds the linear stop scan to the
// binary search it replaced, stop positions included.
func TestScalarTFEvalMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(7)
		pos, val := make([]float64, n), make([]float64, n)
		for i := range pos {
			pos[i], val[i] = rng.Float64(), rng.Float64()
		}
		sort.Float64s(pos)
		tf, err := NewScalarTF(pos, val)
		if err != nil {
			continue // two equal positions
		}
		xs := append([]float64{-0.5, 0, 1, 1.5}, pos...)
		for i := 0; i < 50; i++ {
			xs = append(xs, rng.Float64())
		}
		for _, x := range xs {
			want := val[0]
			if x >= pos[n-1] {
				want = val[n-1]
			} else if x > pos[0] {
				i := sort.SearchFloat64s(pos, x)
				want = val[i-1] + (x-pos[i-1])/(pos[i]-pos[i-1])*(val[i]-val[i-1])
			}
			if got := tf.Eval(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("stops %v: Eval(%v) = %v, search gives %v", pos, x, got, want)
			}
		}
		if got := tf.Eval(math.NaN()); got == got {
			t.Fatalf("Eval(NaN) = %v, want NaN", got)
		}
	}
}

// TestVolumeRGBATransparentIsZero: a sample without opacity returns
// the zero color without a ramp lookup, which is also what keeps a NaN
// density from indexing the ramp.
func TestVolumeRGBATransparentIsZero(t *testing.T) {
	vol, err := StepRamp(0.2, 0.6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := NewLinkedTF(vol, HeatMap(), 0.12, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, domain := range []func(float64) float64{nil, LogDomain(1e4)} {
		tf.Domain = domain
		for _, d := range []float64{0, 1e-9, math.NaN()} {
			if c := tf.VolumeRGBA(d); c != (RGBA{}) {
				t.Errorf("VolumeRGBA(%v) = %v, want zero", d, c)
			}
		}
		c := tf.VolumeRGBA(0.9)
		x := tf.MapDensity(0.9)
		want := tf.Color.Eval(x)
		want.A = tf.Volume.Eval(x) * tf.OpacityScale
		if c != want || c.A <= 0 {
			t.Errorf("VolumeRGBA(0.9) = %v, want %v", c, want)
		}
	}
}
