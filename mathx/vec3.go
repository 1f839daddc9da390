// Package mathx provides the small, allocation-free linear algebra used
// throughout the drone stack: 3-vectors, 3x3 matrices, unit quaternions for
// attitude (elements of SO(3)), and a small dense-matrix type with the
// factorizations needed by the EKF and by SLAM bundle adjustment.
//
// The package is deliberately self-contained (stdlib only) and tuned for the
// fixed small sizes that dominate drone state estimation: the paper (§2.1.3-D)
// notes inner-loop state estimation reduces to 3x3 matrix operations over the
// state x = (position, velocity, angular velocity, attitude).
package mathx

import (
	"fmt"
	"math"
)

// Vec3 is a column vector in R^3.
type Vec3 struct {
	X, Y, Z float64
}

// V3 is shorthand for constructing a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s * v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v . w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the vector cross product v x w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean norm |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormSq returns |v|^2 without the square root.
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// Normalized returns v/|v|, or the zero vector when |v| is negligible.
func (v Vec3) Normalized() Vec3 {
	n := v.Norm()
	if n < 1e-12 {
		return Vec3{}
	}
	return v.Scale(1 / n)
}

// Hadamard returns the element-wise product.
func (v Vec3) Hadamard(w Vec3) Vec3 { return Vec3{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Clamp limits each component to [-lim, +lim]; lim must be non-negative.
func (v Vec3) Clamp(lim float64) Vec3 {
	return Vec3{clamp(v.X, -lim, lim), clamp(v.Y, -lim, lim), clamp(v.Z, -lim, lim)}
}

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%.4g, %.4g, %.4g)", v.X, v.Y, v.Z) }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 { return clamp(x, lo, hi) }
