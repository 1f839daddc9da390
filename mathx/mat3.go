package mathx

import "math"

// Mat3 is a 3x3 matrix in row-major order.
type Mat3 [3][3]float64

// Identity3 returns the 3x3 identity matrix.
func Identity3() Mat3 {
	return Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
}

// Diag3 returns a diagonal matrix with the given entries.
func Diag3(a, b, c float64) Mat3 {
	return Mat3{{a, 0, 0}, {0, b, 0}, {0, 0, c}}
}

// Skew returns the skew-symmetric matrix [v]_x such that [v]_x w = v x w.
func Skew(v Vec3) Mat3 {
	return Mat3{
		{0, -v.Z, v.Y},
		{v.Z, 0, -v.X},
		{-v.Y, v.X, 0},
	}
}

// Mul returns the matrix product m * n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = m[i][0]*n[0][j] + m[i][1]*n[1][j] + m[i][2]*n[2][j]
		}
	}
	return out
}

// MulVec returns m * v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z,
		m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z,
		m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z,
	}
}

// Transpose returns m^T.
func (m Mat3) Transpose() Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = m[j][i]
		}
	}
	return out
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

// IsOrthonormal reports whether m^T m ~ I within tol, i.e. m is a rotation
// (or reflection) matrix.
func (m Mat3) IsOrthonormal(tol float64) bool {
	p := m.Transpose().Mul(m)
	id := Identity3()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(p[i][j]-id[i][j]) > tol {
				return false
			}
		}
	}
	return true
}
