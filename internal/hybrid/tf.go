package hybrid

import (
	"fmt"
	"math"
)

// RGBA is a straight (non-premultiplied) floating-point color.
type RGBA struct {
	R, G, B, A float64
}

// Lerp interpolates component-wise between c and d.
func (c RGBA) Lerp(d RGBA, t float64) RGBA {
	return RGBA{
		c.R + t*(d.R-c.R),
		c.G + t*(d.G-c.G),
		c.B + t*(d.B-c.B),
		c.A + t*(d.A-c.A),
	}
}

// ScalarTF is a piecewise-linear scalar transfer function over the
// normalized density domain [0,1]. Both of the paper's transfer
// functions are scalar at heart: the volume TF's opacity profile, and
// the point TF's "fraction of points drawn".
type ScalarTF struct {
	Pos []float64 // strictly increasing stop positions in [0,1]
	Val []float64 // value at each stop, in [0,1]
}

// NewScalarTF builds a transfer function from parallel position/value
// slices. Positions must be strictly increasing within [0,1].
func NewScalarTF(pos, val []float64) (*ScalarTF, error) {
	if len(pos) != len(val) || len(pos) < 2 {
		return nil, fmt.Errorf("hybrid: transfer function needs >= 2 matched stops, got %d/%d", len(pos), len(val))
	}
	for i := range pos {
		if pos[i] < 0 || pos[i] > 1 {
			return nil, fmt.Errorf("hybrid: stop position %g outside [0,1]", pos[i])
		}
		if i > 0 && pos[i] <= pos[i-1] {
			return nil, fmt.Errorf("hybrid: stop positions not increasing at %d", i)
		}
		if val[i] < 0 || val[i] > 1 {
			return nil, fmt.Errorf("hybrid: stop value %g outside [0,1]", val[i])
		}
	}
	return &ScalarTF{Pos: append([]float64(nil), pos...), Val: append([]float64(nil), val...)}, nil
}

// StepRamp returns the paper's canonical volume-opacity shape: 0 below
// lo, a linear ramp between lo and hi, and the constant value above hi
// ("a step function ... maps low-density regions to 0 and higher
// density regions to some low constant", with "a ramp to transition ...
// so the artificial boundary of the volume-rendered region is less
// visible").
func StepRamp(lo, hi, value float64) (*ScalarTF, error) {
	if !(lo >= 0 && lo < hi && hi <= 1) {
		return nil, fmt.Errorf("hybrid: step ramp needs 0 <= lo < hi <= 1, got %g/%g", lo, hi)
	}
	pos := []float64{0, lo, hi, 1}
	val := []float64{0, 0, value, value}
	if lo == 0 {
		pos, val = pos[1:], val[1:]
	}
	if hi == 1 {
		pos, val = pos[:len(pos)-1], val[:len(val)-1]
	}
	return NewScalarTF(pos, val)
}

// Eval returns the piecewise-linear value at x, clamping outside the
// stop range.
func (tf *ScalarTF) Eval(x float64) float64 {
	if x <= tf.Pos[0] {
		return tf.Val[0]
	}
	last := len(tf.Pos) - 1
	if x >= tf.Pos[last] {
		return tf.Val[last]
	}
	// A transfer function has a handful of stops: scan for the first at
	// or above x. Pos[0] < x < Pos[last] bounds the scan; a NaN x stops
	// it at once and comes back as NaN.
	i := 1
	for tf.Pos[i] < x {
		i++
	}
	// Pos[i-1] < x <= Pos[i]
	t := (x - tf.Pos[i-1]) / (tf.Pos[i] - tf.Pos[i-1])
	return tf.Val[i-1] + t*(tf.Val[i]-tf.Val[i-1])
}

// Clone returns an independent copy.
func (tf *ScalarTF) Clone() *ScalarTF {
	return &ScalarTF{
		Pos: append([]float64(nil), tf.Pos...),
		Val: append([]float64(nil), tf.Val...),
	}
}

// Invert replaces every stop value v with 1-v.
func (tf *ScalarTF) Invert() {
	for i := range tf.Val {
		tf.Val[i] = 1 - tf.Val[i]
	}
}

// ColorMap maps normalized density to color through a fixed ramp; the
// volume TF of the paper is this color ramp modulated by the scalar
// opacity profile.
type ColorMap struct {
	Stops []RGBA // evenly spaced over [0,1]
}

// HeatMap returns the blue-to-red color ramp used by the figures.
func HeatMap() ColorMap {
	return ColorMap{Stops: []RGBA{
		{0.05, 0.05, 0.3, 1},
		{0.1, 0.3, 0.9, 1},
		{0.2, 0.8, 0.9, 1},
		{0.9, 0.9, 0.2, 1},
		{1.0, 0.4, 0.1, 1},
		{1.0, 0.1, 0.1, 1},
	}}
}

// Eval interpolates the ramp at x in [0,1]. x outside the interval
// clamps to the end stops; a NaN x, which an attribute normalized over
// a set holding a NaN yields, gets the first stop as x <= 0 does.
func (cm ColorMap) Eval(x float64) RGBA {
	n := len(cm.Stops)
	if n == 0 {
		return RGBA{}
	}
	if n == 1 || x <= 0 || math.IsNaN(x) {
		return cm.Stops[0]
	}
	if x >= 1 {
		return cm.Stops[n-1]
	}
	f := x * float64(n-1)
	i := int(math.Floor(f))
	if i >= n-1 {
		i = n - 2
	}
	return cm.Stops[i].Lerp(cm.Stops[i+1], f-float64(i))
}

// LinkedTF is the inverse-linked pair of Fig 3(b): a volume transfer
// function (opacity profile times color ramp) and a point transfer
// function (fraction of points drawn), defined on a shared set of stop
// positions. While Linked, the two scalar profiles are exact
// complements — "changing one results in an equal and opposite change
// in the other" — so the user drags a single boundary between the
// point-rendered and volume-rendered regions of the image.
type LinkedTF struct {
	Volume *ScalarTF // opacity weight per normalized density
	Point  *ScalarTF // fraction of points drawn per normalized density
	Color  ColorMap
	// OpacityScale converts the volume weight (0..1) into the actual
	// compositing opacity per sample; the paper uses "some low constant"
	// so the interior stays visible.
	OpacityScale float64
	// Boundary is the normalized preprocessing threshold: densities
	// above it have no stored points ("up until the boundary specified
	// during preprocessing, beyond which no points are available").
	Boundary float64
	Linked   bool
	// Domain optionally remaps raw normalized density before the
	// profiles and color map are evaluated. Beam data spans thousands
	// of densities between halo and core ("the halo is thousands of
	// times less dense than the beam core"), so a logarithmic domain
	// (LogDomain) is what gives the transfer functions usable dynamic
	// range. nil means identity.
	Domain func(float64) float64
}

// LogDomain returns the domain remap x -> log(1+k*x)/log(1+k), which
// expands the low-density end by a factor controlled by k. k must be
// positive; larger k devotes more of the TF domain to sparse regions.
func LogDomain(k float64) func(float64) float64 {
	norm := 1 / math.Log1p(k)
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return math.Log1p(k*x) * norm
	}
}

// mapD applies the optional domain remap.
func (l *LinkedTF) mapD(d float64) float64 {
	if l.Domain != nil {
		return l.Domain(d)
	}
	return d
}

// MapDensity exposes the domain remap for callers that color points
// with the shared color map.
func (l *LinkedTF) MapDensity(d float64) float64 { return l.mapD(d) }

// NewLinkedTF builds a linked pair from the volume weight profile; the
// point profile starts as its exact complement.
func NewLinkedTF(volume *ScalarTF, color ColorMap, opacityScale, boundary float64) (*LinkedTF, error) {
	if opacityScale <= 0 || opacityScale > 1 {
		return nil, fmt.Errorf("hybrid: opacity scale %g outside (0,1]", opacityScale)
	}
	if boundary < 0 || boundary > 1 {
		return nil, fmt.Errorf("hybrid: boundary %g outside [0,1]", boundary)
	}
	point := volume.Clone()
	point.Invert()
	return &LinkedTF{
		Volume:       volume,
		Point:        point,
		Color:        color,
		OpacityScale: opacityScale,
		Boundary:     boundary,
		Linked:       true,
	}, nil
}

// SetVolumeStop changes the volume weight at stop i; when linked, the
// point fraction at the same stop becomes its complement.
func (l *LinkedTF) SetVolumeStop(i int, v float64) error {
	if i < 0 || i >= len(l.Volume.Val) {
		return fmt.Errorf("hybrid: stop index %d out of range", i)
	}
	if v < 0 || v > 1 {
		return fmt.Errorf("hybrid: stop value %g outside [0,1]", v)
	}
	l.Volume.Val[i] = v
	if l.Linked {
		l.Point.Val[i] = 1 - v
	}
	return nil
}

// VolumeRGBA returns the volume transfer function's color and opacity
// at normalized density d (after the optional domain remap). The
// opacity is evaluated first: where it is not positive (or d is NaN)
// the sample composites nothing and the zero RGBA is returned without
// a color lookup.
func (l *LinkedTF) VolumeRGBA(d float64) RGBA {
	x := l.mapD(d)
	a := l.Volume.Eval(x) * l.OpacityScale
	if !(a > 0) {
		return RGBA{}
	}
	c := l.Color.Eval(x)
	c.A = a
	return c
}

// PointFraction returns the fraction of stored points to draw at
// normalized density d. Beyond the preprocessing boundary no points
// exist, so the fraction is 0 regardless of the editable profile.
func (l *LinkedTF) PointFraction(d float64) float64 {
	if d > l.Boundary {
		return 0
	}
	return l.Point.Eval(l.mapD(d))
}

// Complementary reports whether the two profiles are exact complements
// at every stop — the linked-editing invariant the property tests
// check.
func (l *LinkedTF) Complementary() bool {
	if len(l.Volume.Val) != len(l.Point.Val) {
		return false
	}
	for i := range l.Volume.Val {
		if math.Abs(l.Volume.Val[i]+l.Point.Val[i]-1) > 1e-12 {
			return false
		}
	}
	return true
}

// DefaultTF builds the viewer's default transfer-function pair for a
// representation: a log-density domain (the halo is thousands of times
// less dense than the core), a step-ramp volume profile whose
// breakpoint sits at the extraction boundary, the heat-map color ramp,
// and a low constant volume opacity so the interior stays visible.
func DefaultTF(rep *Representation) (*LinkedTF, error) {
	return DefaultTFParams(rep.Threshold, rep.MaxLeafD)
}

// DefaultTFParams builds DefaultTF's transfer-function pair from the
// only two representation fields it depends on — the extraction
// threshold and the maximum leaf density. A remote render kernel
// rebuilds the identical TF from these sixteen wire bytes instead of
// shipping a whole frame.
func DefaultTFParams(threshold, maxLeafD float64) (*LinkedTF, error) {
	boundary := 1.0
	if maxLeafD > 0 {
		boundary = threshold / maxLeafD
	}
	dom := LogDomain(1e4)
	b := dom(boundary)
	lo := b / 2
	hi := math.Min(b*1.5, 1)
	if hi <= lo {
		lo, hi = 0.1, 0.5
	}
	vol, err := StepRamp(lo, hi, 1.0)
	if err != nil {
		return nil, err
	}
	tf, err := NewLinkedTF(vol, HeatMap(), 0.12, boundary)
	if err != nil {
		return nil, err
	}
	tf.Domain = dom
	return tf, nil
}
