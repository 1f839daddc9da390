package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuatIdentityRotate(t *testing.T) {
	v := V3(1, 2, 3)
	if got := QuatIdentity().Rotate(v); got.Sub(v).Norm() > 1e-12 {
		t.Errorf("identity rotate = %v", got)
	}
}

func TestQuatAxisAngle(t *testing.T) {
	// 90 degrees about z maps x to y.
	q := QuatFromAxisAngle(V3(0, 0, 1), math.Pi/2)
	got := q.Rotate(V3(1, 0, 0))
	if got.Sub(V3(0, 1, 0)).Norm() > 1e-9 {
		t.Errorf("rot z 90 of x = %v, want y", got)
	}
}

func TestQuatEulerRoundTrip(t *testing.T) {
	cases := []struct{ roll, pitch, yaw float64 }{
		{0, 0, 0},
		{0.3, -0.2, 1.1},
		{-1.0, 0.5, -2.0},
		{0.1, 1.0, 3.0},
	}
	for _, c := range cases {
		q := QuatFromEuler(c.roll, c.pitch, c.yaw)
		r, p, y := q.Euler()
		if math.Abs(r-c.roll) > 1e-9 || math.Abs(p-c.pitch) > 1e-9 || math.Abs(y-c.yaw) > 1e-9 {
			t.Errorf("round trip (%v,%v,%v) -> (%v,%v,%v)", c.roll, c.pitch, c.yaw, r, p, y)
		}
	}
}

func TestQuatRotatePreservesNorm(t *testing.T) {
	f := func(q Quat, v Vec3) bool {
		return math.Abs(q.Rotate(v).Norm()-v.Norm()) < 1e-9*(1+v.Norm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Values: quatAndVec}); err != nil {
		t.Error(err)
	}
}

func TestQuatRotateInvIsInverse(t *testing.T) {
	f := func(q Quat, v Vec3) bool {
		back := q.RotateInv(q.Rotate(v))
		return back.Sub(v).Norm() < 1e-9*(1+v.Norm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Values: quatAndVec}); err != nil {
		t.Error(err)
	}
}

func TestQuatMatMatchesRotate(t *testing.T) {
	f := func(q Quat, v Vec3) bool {
		a := q.Rotate(v)
		b := q.Mat().MulVec(v)
		return a.Sub(b).Norm() < 1e-9*(1+v.Norm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Values: quatAndVec}); err != nil {
		t.Error(err)
	}
}

func TestQuatMulComposition(t *testing.T) {
	f := func(a, b Quat) bool {
		v := V3(1, 2, 3)
		lhs := a.Mul(b).Rotate(v)
		rhs := a.Rotate(b.Rotate(v))
		return lhs.Sub(rhs).Norm() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Values: quatPair}); err != nil {
		t.Error(err)
	}
}

func TestQuatIntegrate(t *testing.T) {
	// Integrating a constant yaw rate of pi/2 rad/s for 1 s in small steps
	// should yield ~90 degrees of yaw.
	q := QuatIdentity()
	const dt = 1e-4
	for i := 0; i < 10000; i++ {
		q = q.Integrate(V3(0, 0, math.Pi/2), dt)
	}
	_, _, yaw := q.Euler()
	if math.Abs(yaw-math.Pi/2) > 1e-3 {
		t.Errorf("yaw after integration = %v, want %v", yaw, math.Pi/2)
	}
	if math.Abs(q.Norm()-1) > 1e-9 {
		t.Errorf("integration broke unit norm: %v", q.Norm())
	}
}

func TestQuatAngleTo(t *testing.T) {
	a := QuatIdentity()
	b := QuatFromAxisAngle(V3(1, 0, 0), 0.5)
	if got := a.AngleTo(b); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("AngleTo = %v, want 0.5", got)
	}
	if got := a.AngleTo(a); got > 1e-9 {
		t.Errorf("AngleTo self = %v", got)
	}
}

func TestQuatDegenerateNormalize(t *testing.T) {
	q := Quat{}.Normalized()
	if q != QuatIdentity() {
		t.Errorf("zero quat normalized = %v, want identity", q)
	}
}

// TestRotationApplyMatchesRotate: a prepared Rotation rotates bit for bit
// as Rotate and RotateInv do, on random unit and non-unit quaternions and
// on every combination of special components (signed zeros, subnormals,
// huge values, NaN and ±Inf) in the quaternion and in the vector. A NaN
// component must be NaN on both sides, but its sign and payload may differ:
// Go leaves them unspecified, and on amd64 they follow whichever operand
// the compiler put first.
func TestRotationApplyMatchesRotate(t *testing.T) {
	same := func(a, b Vec3) bool {
		for _, p := range [][2]float64{{a.X, b.X}, {a.Y, b.Y}, {a.Z, b.Z}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) && !(math.IsNaN(p[0]) && math.IsNaN(p[1])) {
				return false
			}
		}
		return true
	}
	check := func(q Quat, v Vec3) {
		t.Helper()
		if got, want := q.Rotation().Apply(v), q.Rotate(v); !same(got, want) {
			t.Fatalf("Rotation(%v).Apply(%v) = %v, Rotate = %v", q, v, got, want)
		}
		if got, want := q.Conj().Rotation().Apply(v), q.RotateInv(v); !same(got, want) {
			t.Fatalf("Conj().Rotation(%v).Apply(%v) = %v, RotateInv = %v", q, v, got, want)
		}
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		v := V3(r.NormFloat64()*10, r.NormFloat64()*10, r.NormFloat64()*10)
		check(randomUnitQuat(r), v)
		check(Quat{r.NormFloat64() * 3, r.NormFloat64(), r.NormFloat64(), r.NormFloat64() * 1e-3}, v)
	}
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 5e-324, -5e-324, 2.2250738585072009e-308,
		1e200, -1e300, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, a := range special {
		for _, b := range special {
			check(Quat{a, b, 0.25, -0.75}, V3(a, b, 3))
			check(Quat{0.5, a, -0.5, b}, V3(-2, a, b))
			check(Quat{b, 0.1, a, 0.3}, V3(b, 1.5, a))
			check(Quat{-0.2, 0.4, b, a}, V3(0.7, b, -a))
		}
	}
	check(Quat{}, V3(1, 2, 3))
	check(Quat{math.Copysign(0, -1), math.Copysign(0, -1), 0, math.Copysign(0, -1)}, V3(0, math.Copysign(0, -1), 1))
}
