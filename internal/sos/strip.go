// Package sos implements self-orienting surfaces (§3.1, ref [12]): a
// compact, texture-enhanced representation for interactive
// visualization of 3-D vector fields. Each field line becomes a
// triangle strip built from its points and tangents that always
// orients toward the observer; a procedural "bump texture" (the
// render.TubeShader) reconstructs per-fragment tube normals so the
// flat strip shades exactly like a polygonal streamtube while using
// five to six times fewer triangles — the storage/rendering saving the
// paper quantifies.
package sos

import (
	"math"

	"repro/internal/fieldline"
	"repro/internal/hybrid"
	"repro/internal/render"
	"repro/internal/sortx"
	"repro/internal/vec"
)

// StripParams controls strip generation.
type StripParams struct {
	// Width is the full world-space width of the strip (the tube
	// diameter it emulates).
	Width float64
	// MaxStrength normalizes per-point field strength into UV[1]; 0
	// means use the line's own maximum.
	MaxStrength float64
	// Color is the strip's color.
	Color hybrid.RGBA
}

// stripVertices returns the vertex count of the strip of a line with n
// points: two per point, none for a line too short to draw.
func stripVertices(n int) int {
	if n < 2 {
		return 0
	}
	return 2 * n
}

// fillStrip converts one field line into a view-oriented triangle
// strip, in storage the caller provides: len(dst) must be
// stripVertices(line.NumPoints()). For each sample, the strip extends
// half a width to each side along S = normalize(T x V), where T is the
// line tangent and V the direction to the eye — so the strip's plane
// always contains the view direction ("the triangle strip always
// orients toward the observer"). UV[0] carries the across-strip
// coordinate in [-1, +1] (the tube profile parameter the shader
// consumes); UV[1] carries normalized field strength. Degenerate
// samples (tangent parallel to the view) reuse the previous side
// vector, keeping the strip continuous.
func fillStrip(dst []render.Vertex, line *fieldline.Line, eye vec.V3, p StripParams) {
	n := len(dst) / 2
	if n == 0 {
		return
	}
	maxS := p.MaxStrength
	if maxS <= 0 {
		maxS = line.MaxStrength()
	}
	if maxS == 0 {
		maxS = 1
	}
	var prevSide vec.V3
	havePrev := false
	for i := 0; i < n; i++ {
		pt := line.Points[i]
		view := eye.Sub(pt).Norm()
		side := line.Tangents[i].Cross(view)
		if side.Len2() < 1e-16 {
			if !havePrev {
				side = line.Tangents[i].Perp()
			} else {
				side = prevSide
			}
		} else {
			side = side.Norm()
			// Keep side continuity: avoid sudden flips along the strip.
			if havePrev && side.Dot(prevSide) < 0 {
				side = side.Neg()
			}
		}
		prevSide, havePrev = side, true

		strength := line.Strengths[i] / maxS
		if strength > 1 {
			strength = 1
		}
		half := side.Scale(p.Width / 2)
		// The vertex normal slot carries the side vector for the tube
		// shader's normal reconstruction.
		dst[2*i] = render.Vertex{Pos: pt.Sub(half), N: side, UV: [2]float64{-1, strength}, Color: p.Color}
		dst[2*i+1] = render.Vertex{Pos: pt.Add(half), N: side, UV: [2]float64{+1, strength}, Color: p.Color}
	}
}

// BuildTube tessellates a conventional polygonal streamtube around the
// line — the Fig 6(c) baseline the strip representation is compared
// against. It returns a triangle list (not a strip) with outward
// normals for Phong shading. The cross-section frame is propagated
// along the line by parallel transport to avoid twisting.
func BuildTube(line *fieldline.Line, radius float64, sides int, color hybrid.RGBA) []render.Vertex {
	n := line.NumPoints()
	if n < 2 || sides < 3 {
		return nil
	}
	// Parallel-transport frames.
	normals := make([]vec.V3, n)
	binormals := make([]vec.V3, n)
	normals[0] = line.Tangents[0].Perp()
	binormals[0] = line.Tangents[0].Cross(normals[0]).Norm()
	for i := 1; i < n; i++ {
		t0, t1 := line.Tangents[i-1], line.Tangents[i]
		axis := t0.Cross(t1)
		if axis.Len2() < 1e-16 {
			normals[i] = normals[i-1]
		} else {
			// Rotate the previous normal by the angle between tangents.
			angle := math.Acos(clamp(t0.Dot(t1), -1, 1))
			normals[i] = rotateAround(normals[i-1], axis.Norm(), angle)
		}
		// Re-orthogonalize against accumulated error.
		normals[i] = normals[i].Sub(t1.Scale(normals[i].Dot(t1))).Norm()
		binormals[i] = t1.Cross(normals[i]).Norm()
	}

	ring := func(i, s int) render.Vertex {
		angle := 2 * math.Pi * float64(s) / float64(sides)
		dir := normals[i].Scale(math.Cos(angle)).Add(binormals[i].Scale(math.Sin(angle)))
		return render.Vertex{
			Pos:   line.Points[i].Add(dir.Scale(radius)),
			N:     dir,
			Color: color,
		}
	}
	var tris []render.Vertex
	for i := 0; i+1 < n; i++ {
		for s := 0; s < sides; s++ {
			a := ring(i, s)
			b := ring(i, (s+1)%sides)
			c := ring(i+1, s)
			d := ring(i+1, (s+1)%sides)
			tris = append(tris, a, b, c, b, d, c)
		}
	}
	return tris
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// rotateAround rotates v around the unit axis by angle (Rodrigues).
func rotateAround(v, axis vec.V3, angle float64) vec.V3 {
	c, s := math.Cos(angle), math.Sin(angle)
	return v.Scale(c).
		Add(axis.Cross(v).Scale(s)).
		Add(axis.Scale(axis.Dot(v) * (1 - c)))
}

// SortByDepth orders line indices back-to-front with respect to the
// eye using each line's midpoint — the compositing order transparency
// rendering needs. (The paper notes full depth sorting "is not
// practical for very large data" and points at hardware
// order-independent transparency; per-line midpoint sorting is the
// standard interactive approximation.)
func SortByDepth(lines []*fieldline.Line, eye vec.V3) []int {
	// Descending float keys sort ascending as uints; sortx is stable,
	// so equal-depth lines keep their input order, matching the
	// sort.SliceStable behavior this replaces.
	kv := make([]sortx.KV, len(lines))
	for i, l := range lines {
		var depth float64
		if l.NumPoints() > 0 {
			depth = eye.Dist(l.Points[l.NumPoints()/2])
		}
		kv[i] = sortx.KV{K: sortx.Float64KeyDesc(depth), V: int64(i)}
	}
	sortx.Pairs(kv, 0)
	order := make([]int, len(lines))
	for i := range kv {
		order[i] = int(kv[i].V)
	}
	return order
}

// ClipLines cuts away every line sample on the positive side of the
// plane (normal·p > offset), splitting lines as needed — the Fig 6(h)
// cutaway and the Fig 9 "front half of the mesh has been removed"
// view. Lines shorter than 2 points after clipping are dropped.
func ClipLines(lines []*fieldline.Line, normal vec.V3, offset float64) []*fieldline.Line {
	var out []*fieldline.Line
	n := normal.Norm()
	for _, l := range lines {
		var cur *fieldline.Line
		flush := func() {
			if cur != nil && cur.NumPoints() >= 2 {
				out = append(out, cur)
			}
			cur = nil
		}
		for i, p := range l.Points {
			if n.Dot(p) > offset {
				flush()
				continue
			}
			if cur == nil {
				cur = &fieldline.Line{}
			}
			cur.Points = append(cur.Points, p)
			cur.Tangents = append(cur.Tangents, l.Tangents[i])
			cur.Strengths = append(cur.Strengths, l.Strengths[i])
		}
		flush()
	}
	return out
}
