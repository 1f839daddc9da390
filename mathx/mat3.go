package mathx

import "math"

// Mat3 is a 3x3 matrix in row-major order.
type Mat3 [3][3]float64

// MulVec returns m * v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z,
		m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z,
		m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z,
	}
}

// Det returns the determinant of m.
func (m Mat3) Det() float64 {
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}

// Inverse returns m^-1 and true, or the zero matrix and false when m is
// singular (|det| < 1e-12).
func (m Mat3) Inverse() (Mat3, bool) {
	d := m.Det()
	if math.Abs(d) < 1e-12 {
		return Mat3{}, false
	}
	inv := 1 / d
	var out Mat3
	out[0][0] = (m[1][1]*m[2][2] - m[1][2]*m[2][1]) * inv
	out[0][1] = (m[0][2]*m[2][1] - m[0][1]*m[2][2]) * inv
	out[0][2] = (m[0][1]*m[1][2] - m[0][2]*m[1][1]) * inv
	out[1][0] = (m[1][2]*m[2][0] - m[1][0]*m[2][2]) * inv
	out[1][1] = (m[0][0]*m[2][2] - m[0][2]*m[2][0]) * inv
	out[1][2] = (m[0][2]*m[1][0] - m[0][0]*m[1][2]) * inv
	out[2][0] = (m[1][0]*m[2][1] - m[1][1]*m[2][0]) * inv
	out[2][1] = (m[0][1]*m[2][0] - m[0][0]*m[2][1]) * inv
	out[2][2] = (m[0][0]*m[1][1] - m[0][1]*m[1][0]) * inv
	return out, true
}

// Trace returns the trace of m.
func (m Mat3) Trace() float64 { return m[0][0] + m[1][1] + m[2][2] }
