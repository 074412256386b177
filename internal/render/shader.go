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

// PhongShader returns a fragment shader applying Phong illumination
// with the given lights to the interpolated vertex color. Enhanced
// lighting (§3.3.1) is simply this shader with more than one light; it
// carries no extra per-fragment cost beyond the additional light loop,
// matching the paper's "no significant performance penalty" note.
func PhongShader(lights []Light, mat PhongParams) Shader {
	return func(f Fragment) hybrid.RGBA {
		n := f.N.Norm()
		if n.Len2() == 0 {
			return f.Color
		}
		// Two-sided shading: flip the normal toward the viewer.
		if n.Dot(f.ViewDir) < 0 {
			n = n.Neg()
		}
		var r, g, b float64
		r = mat.Ambient * f.Color.R
		g = mat.Ambient * f.Color.G
		b = mat.Ambient * f.Color.B
		for _, l := range lights {
			ld := l.Dir.Norm()
			diff := n.Dot(ld)
			if diff < 0 {
				diff = 0
			}
			half := ld.Add(f.ViewDir).Norm()
			spec := 0.0
			if diff > 0 {
				spec = math.Pow(math.Max(n.Dot(half), 0), mat.Shininess)
			}
			w := l.Intensity
			r += w * (mat.Diffuse*diff*f.Color.R*l.Color.R + mat.Specular*spec*l.Color.R)
			g += w * (mat.Diffuse*diff*f.Color.G*l.Color.G + mat.Specular*spec*l.Color.G)
			b += w * (mat.Diffuse*diff*f.Color.B*l.Color.B + mat.Specular*spec*l.Color.B)
		}
		return hybrid.RGBA{R: r, G: g, B: b, A: f.Color.A}
	}
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
// discarded (alpha 0).
func TubeShader(lights []Light, mat PhongParams, haloStart float64) Shader {
	phong := PhongShader(lights, mat)
	return func(f Fragment) hybrid.RGBA {
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
		n := side.Scale(u).Add(f.ViewDir.Scale(math.Sqrt(1 - u*u)))
		f2 := f
		f2.N = n
		return phong(f2)
	}
}

// RibbonDensityShader implements the Fig 6(e) compact textured ribbon:
// a procedural stripe texture whose line density encodes the local
// field strength carried in UV[1] (0..1). stripes controls the maximum
// line count across the ribbon.
func RibbonDensityShader(lights []Light, mat PhongParams, stripes float64) Shader {
	phong := PhongShader(lights, mat)
	return func(f Fragment) hybrid.RGBA {
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
		return phong(f)
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
