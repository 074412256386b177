package vec

import "math"

// M4 is a 4x4 matrix in row-major order, used for the model-view and
// projection transforms of the software renderer.
type M4 [16]float64

// Apply transforms the point p (w=1) by m and performs the perspective
// divide. Points at w=0 are returned untransformed in w. It takes the
// matrix by pointer: the renderer applies one per vertex, and a value
// receiver copies its 128 bytes on every call.
func (m *M4) Apply(p V3) V3 {
	x := m[0]*p.X + m[1]*p.Y + m[2]*p.Z + m[3]
	y := m[4]*p.X + m[5]*p.Y + m[6]*p.Z + m[7]
	z := m[8]*p.X + m[9]*p.Y + m[10]*p.Z + m[11]
	w := m[12]*p.X + m[13]*p.Y + m[14]*p.Z + m[15]
	if w != 0 && w != 1 {
		inv := 1 / w
		return V3{x * inv, y * inv, z * inv}
	}
	return V3{x, y, z}
}

// LookAt returns a view matrix placing the camera at eye, looking at
// target, with the given approximate up direction, matching the
// OpenGL gluLookAt convention (camera looks down -Z in view space).
func LookAt(eye, target, up V3) M4 {
	f := target.Sub(eye).Norm()
	s := f.Cross(up.Norm()).Norm()
	u := s.Cross(f)
	return M4{
		s.X, s.Y, s.Z, -s.Dot(eye),
		u.X, u.Y, u.Z, -u.Dot(eye),
		-f.X, -f.Y, -f.Z, f.Dot(eye),
		0, 0, 0, 1,
	}
}

// Perspective returns a perspective projection with the given vertical
// field of view (radians), aspect ratio, and near/far planes, matching
// the OpenGL gluPerspective convention.
func Perspective(fovy, aspect, near, far float64) M4 {
	t := 1 / math.Tan(fovy/2)
	return M4{
		t / aspect, 0, 0, 0,
		0, t, 0, 0,
		0, 0, (far + near) / (near - far), 2 * far * near / (near - far),
		0, 0, -1, 0,
	}
}
