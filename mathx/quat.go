package mathx

import "math"

// Quat is a unit quaternion w + xi + yj + zk representing an attitude,
// i.e. an element of SO(3) (§2.1.3-D: the drone attitude R ∈ SO(3)).
// The convention is body-to-world rotation: Rotate maps body-frame vectors
// into the world frame.
type Quat struct {
	W, X, Y, Z float64
}

// QuatIdentity returns the identity rotation.
func QuatIdentity() Quat { return Quat{W: 1} }

// QuatFromAxisAngle builds the rotation of angle rad about axis (normalized
// internally).
func QuatFromAxisAngle(axis Vec3, angle float64) Quat {
	a := axis.Normalized()
	s, c := math.Sincos(angle / 2)
	return Quat{c, a.X * s, a.Y * s, a.Z * s}
}

// QuatFromEuler builds an attitude from aerospace Z-Y-X (yaw-pitch-roll)
// Euler angles in radians.
func QuatFromEuler(roll, pitch, yaw float64) Quat {
	sr, cr := math.Sincos(roll / 2)
	sp, cp := math.Sincos(pitch / 2)
	sy, cy := math.Sincos(yaw / 2)
	return Quat{
		W: cr*cp*cy + sr*sp*sy,
		X: sr*cp*cy - cr*sp*sy,
		Y: cr*sp*cy + sr*cp*sy,
		Z: cr*cp*sy - sr*sp*cy,
	}
}

// Euler returns the Z-Y-X (roll, pitch, yaw) Euler angles of q in radians.
func (q Quat) Euler() (roll, pitch, yaw float64) {
	// roll (x-axis rotation)
	sinr := 2 * (q.W*q.X + q.Y*q.Z)
	cosr := 1 - 2*(q.X*q.X+q.Y*q.Y)
	roll = math.Atan2(sinr, cosr)

	// pitch (y-axis rotation), guarded against numerical drift past ±1
	sinp := 2 * (q.W*q.Y - q.Z*q.X)
	if math.Abs(sinp) >= 1 {
		pitch = math.Copysign(math.Pi/2, sinp)
	} else {
		pitch = math.Asin(sinp)
	}

	// yaw (z-axis rotation)
	siny := 2 * (q.W*q.Z + q.X*q.Y)
	cosy := 1 - 2*(q.Y*q.Y+q.Z*q.Z)
	yaw = math.Atan2(siny, cosy)
	return
}

// Mul returns the Hamilton product q * r (apply r first, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Conj returns the conjugate (inverse for unit quaternions).
func (q Quat) Conj() Quat { return Quat{q.W, -q.X, -q.Y, -q.Z} }

// Norm returns |q|.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalized returns q scaled to unit norm; the identity is returned for a
// degenerate (near-zero) quaternion.
func (q Quat) Normalized() Quat {
	n := q.Norm()
	if n < 1e-12 {
		return QuatIdentity()
	}
	return Quat{q.W / n, q.X / n, q.Y / n, q.Z / n}
}

// Rotate applies the rotation to v (body → world for an attitude quaternion).
func (q Quat) Rotate(v Vec3) Vec3 {
	// v' = q (0,v) q*
	u := Vec3{q.X, q.Y, q.Z}
	s := q.W
	return u.Scale(2 * u.Dot(v)).
		Add(v.Scale(s*s - u.Dot(u))).
		Add(u.Cross(v).Scale(2 * s))
}

// RotateInv applies the inverse rotation (world → body).
func (q Quat) RotateInv(v Vec3) Vec3 { return q.Conj().Rotate(v) }

// Rotation is a quaternion prepared for rotating many vectors: the two
// factors of Rotate that depend only on q, s²−u·u and 2s, computed once.
// Apply performs the same operations on the same operands as Rotate, so
// q.Rotation().Apply(v) is q.Rotate(v) bit for bit, except that a NaN
// component may differ in sign and payload, which Go leaves unspecified.
type Rotation struct {
	u       Vec3
	c, twoS float64
}

// Rotation prepares q for Apply; q.Conj().Rotation() prepares RotateInv.
func (q Quat) Rotation() Rotation {
	u := Vec3{q.X, q.Y, q.Z}
	s := q.W
	return Rotation{u: u, c: s*s - u.Dot(u), twoS: 2 * s}
}

// Apply rotates v: Rotate without recomputing its per-quaternion factors.
func (r Rotation) Apply(v Vec3) Vec3 {
	return r.u.Scale(2 * r.u.Dot(v)).
		Add(v.Scale(r.c)).
		Add(r.u.Cross(v).Scale(r.twoS))
}

// Mat returns the 3x3 rotation matrix of q.
func (q Quat) Mat() Mat3 {
	w, x, y, z := q.W, q.X, q.Y, q.Z
	return Mat3{
		{1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y)},
		{2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x)},
		{2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y)},
	}
}

// Integrate advances the attitude by body angular rate omega (rad/s) over dt
// seconds using first-order quaternion integration, returning a normalized
// quaternion. This is the kernel the inner loop runs at up to 1 kHz.
func (q Quat) Integrate(omega Vec3, dt float64) Quat {
	dq := Quat{0, omega.X, omega.Y, omega.Z}
	qd := q.Mul(dq)
	out := Quat{
		q.W + 0.5*qd.W*dt,
		q.X + 0.5*qd.X*dt,
		q.Y + 0.5*qd.Y*dt,
		q.Z + 0.5*qd.Z*dt,
	}
	return out.Normalized()
}

// AngleTo returns the geodesic angle between two attitudes in radians.
func (q Quat) AngleTo(r Quat) float64 {
	d := q.Conj().Mul(r).Normalized()
	w := math.Abs(d.W)
	if w > 1 {
		w = 1
	}
	return 2 * math.Acos(w)
}
