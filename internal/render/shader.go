package render

import (
	"math"

	"repro/internal/hybrid"
	"repro/internal/vec"
)

// Light is a directional light. Dir points from the surface toward the
// light.
type Light struct {
	Dir       vec.V3
	Color     hybrid.RGBA
	Intensity float64
}

// PhongParams configures the Phong shading model.
type PhongParams struct {
	Ambient   float64
	Diffuse   float64
	Specular  float64
	Shininess float64
}

// DefaultPhong returns the material used by the streamtube and
// self-orienting-surface renderings.
func DefaultPhong() PhongParams {
	return PhongParams{Ambient: 0.08, Diffuse: 0.75, Specular: 0.5, Shininess: 32}
}

// phong is Phong illumination as fixed when a shader is built: the
// lights with their directions normalized once, the material, and its
// specular exponent classified once (see specPower).
type phong struct {
	lights []Light
	mat    PhongParams
	spec   specPower
}

func newPhong(lights []Light, mat PhongParams) phong {
	ls := make([]Light, len(lights))
	for i, l := range lights {
		l.Dir = l.Dir.Norm()
		ls[i] = l
	}
	return phong{lights: ls, mat: mat, spec: newSpecPower(mat.Shininess)}
}

// shade lights f's color with f's normal, two-sided, as seen along
// f.ViewDir. A zero normal leaves the color unlit.
func (p phong) shade(f *Fragment) hybrid.RGBA {
	n := f.N.Norm()
	if n.Len2() == 0 {
		return f.Color
	}
	// Two-sided shading: flip the normal toward the viewer.
	if n.Dot(f.ViewDir) < 0 {
		n = n.Neg()
	}
	mat := p.mat
	var r, g, b float64
	r = mat.Ambient * f.Color.R
	g = mat.Ambient * f.Color.G
	b = mat.Ambient * f.Color.B
	for i := range p.lights {
		l := &p.lights[i]
		diff := n.Dot(l.Dir)
		if diff < 0 {
			diff = 0
		}
		half := l.Dir.Add(f.ViewDir).Norm()
		spec := 0.0
		if diff > 0 {
			spec = p.spec.pow(max(n.Dot(half), 0)) // the builtin: math.Max's rules, inline
		}
		w := l.Intensity
		r += w * (mat.Diffuse*diff*f.Color.R*l.Color.R + mat.Specular*spec*l.Color.R)
		g += w * (mat.Diffuse*diff*f.Color.G*l.Color.G + mat.Specular*spec*l.Color.G)
		b += w * (mat.Diffuse*diff*f.Color.B*l.Color.B + mat.Specular*spec*l.Color.B)
	}
	return hybrid.RGBA{R: r, G: g, B: b, A: f.Color.A}
}

// specPower is x^y for a specular exponent y, classified once: when y
// is 2^k, x in [lo, hi] is raised by k squarings, which give
// math.Pow's bits there (see the package doc); any other x, and every x
// for any other y, goes to math.Pow. Exponents from 2 to 2^maxSquarings
// take the squarings.
type specPower struct {
	y      float64
	k      int
	lo, hi float64 // lo > hi when y takes no squarings
}

// maxSquarings bounds the exponents specPower squares for: 2^7 = 128
// covers the usual range of Phong shininess.
const maxSquarings = 7

func newSpecPower(y float64) specPower {
	frac, exp := math.Frexp(y) // y = 2^(exp-1) exactly when frac is 1/2
	k := exp - 1
	if frac != 0.5 || k < 1 || k > maxSquarings {
		return specPower{y: y, lo: 1, hi: 0}
	}
	// Every square x_j = x^(2^j), j <= k, stays normal and finite for
	// x in [2^-floor(1022/2^k), 2^floor(1023/2^k)].
	n := 1 << k
	return specPower{y: y, k: k, lo: math.Ldexp(1, -(1022 / n)), hi: math.Ldexp(1, 1023/n)}
}

func (p *specPower) pow(x float64) float64 {
	if !(x >= p.lo && x <= p.hi) { // NaN fails too
		return math.Pow(x, p.y)
	}
	for i := 0; i < p.k; i++ {
		x *= x
	}
	return x
}

// PhongShader returns a fragment shader applying Phong illumination
// with the given lights to the interpolated vertex color. Enhanced
// lighting (§3.3.1) is simply this shader with more than one light; it
// carries no extra per-fragment cost beyond the additional light loop,
// matching the paper's "no significant performance penalty" note.
func PhongShader(lights []Light, mat PhongParams) Shader {
	p := newPhong(lights, mat)
	return func(f *Fragment) hybrid.RGBA { return p.shade(f) }
}

// TubeShader returns the self-orienting-surface fragment program: the
// strip's across coordinate u = UV[0] in [-1, 1] is interpreted as the
// parametric position on a tube cross-section, and the fragment normal
// is reconstructed as if the flat strip were a half-cylinder bulging
// toward the viewer:
//
//	n(u) = u * S + sqrt(1-u^2) * V
//
// with S the strip's side vector (passed in the vertex normal slot)
// and V the view direction. This is the software statement of the
// paper's hardware bump mapping: "self-orienting surfaces use texture
// to effectively capture the same surface normal vectors that a
// polygonal tube would have, so ... the lighting appears exact."
// Fragments beyond |u| > haloStart are painted black (the halo rim of
// §3.3.2); fragments beyond |u| > 1 would be outside the tube and are
// discarded (alpha 0). The reconstructed normal is written into the
// fragment's N.
func TubeShader(lights []Light, mat PhongParams, haloStart float64) Shader {
	p := newPhong(lights, mat)
	return func(f *Fragment) hybrid.RGBA {
		u := f.UV[0]
		au := math.Abs(u)
		if au > 1 {
			return hybrid.RGBA{} // outside the tube profile: discard
		}
		if haloStart > 0 && au > haloStart {
			// Black halo rim, opaque: occludes lines passing behind.
			return hybrid.RGBA{R: 0, G: 0, B: 0, A: f.Color.A}
		}
		side := f.N.Norm()
		f.N = side.Scale(u).Add(f.ViewDir.Scale(math.Sqrt(1 - u*u)))
		return p.shade(f)
	}
}

// RibbonDensityShader implements the Fig 6(e) compact textured ribbon:
// a procedural stripe texture whose line density encodes the local
// field strength carried in UV[1] (0..1). stripes controls the maximum
// line count across the ribbon.
func RibbonDensityShader(lights []Light, mat PhongParams, stripes float64) Shader {
	p := newPhong(lights, mat)
	return func(f *Fragment) hybrid.RGBA {
		u := f.UV[0] // across the ribbon, -1..1
		if math.Abs(u) > 1 {
			return hybrid.RGBA{}
		}
		strength := f.UV[1]
		// Number of visible stripes grows with field strength.
		n := 1 + math.Floor(strength*(stripes-1))
		phase := math.Abs(math.Sin((u + 1) / 2 * math.Pi * n))
		if phase < 0.55 {
			return hybrid.RGBA{} // between stripes: transparent
		}
		return p.shade(f)
	}
}

// IlluminatedLineColor computes the Stalling–Zöckler–Hege illuminated
// streamline shading (§3.3.1, ref [13]) for a line segment with unit
// tangent t: because a line has no unique normal, the maximum
// reflection over the normal plane is used:
//
//	diffuse  = sqrt(1 - (L.T)^2)
//	specular = max(0, sqrt(1-(L.T)^2) * sqrt(1-(V.T)^2) - (L.T)(V.T))^p
//
// It returns the shaded color for a base color c. This is the
// technique of Fig 6(b), implemented per-vertex exactly as the texture
// matrix trick in the original paper would evaluate it.
func IlluminatedLineColor(c hybrid.RGBA, tangent, lightDir, viewDir vec.V3, mat PhongParams) hybrid.RGBA {
	t := tangent.Norm()
	l := lightDir.Norm()
	v := viewDir.Norm()
	lt := l.Dot(t)
	vt := v.Dot(t)
	diff := math.Sqrt(math.Max(0, 1-lt*lt))
	spec := diff*math.Sqrt(math.Max(0, 1-vt*vt)) - lt*vt
	if spec < 0 {
		spec = 0
	}
	spec = math.Pow(spec, mat.Shininess)
	return hybrid.RGBA{
		R: mat.Ambient*c.R + mat.Diffuse*diff*c.R + mat.Specular*spec,
		G: mat.Ambient*c.G + mat.Diffuse*diff*c.G + mat.Specular*spec,
		B: mat.Ambient*c.B + mat.Diffuse*diff*c.B + mat.Specular*spec,
		A: c.A,
	}
}
