package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVec3Basics(t *testing.T) {
	v := V3(1, 2, 3)
	w := V3(4, -5, 6)
	if got := v.Add(w); got != V3(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != V3(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != V3(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 1*4-2*5+3*6 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Neg(); got != V3(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
	if got := v.Hadamard(w); got != V3(4, -10, 18) {
		t.Errorf("Hadamard = %v", got)
	}
}

func TestVec3Cross(t *testing.T) {
	x, y, z := V3(1, 0, 0), V3(0, 1, 0), V3(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x cross y = %v, want z", got)
	}
	if got := y.Cross(z); got != x {
		t.Errorf("y cross z = %v, want x", got)
	}
	if got := z.Cross(x); got != y {
		t.Errorf("z cross x = %v, want y", got)
	}
}

func TestVec3CrossOrthogonalProperty(t *testing.T) {
	f := func(a, b Vec3) bool {
		c := a.Cross(b)
		// c ⟂ a and c ⟂ b, up to float error scaled by magnitudes
		tol := 1e-9 * (1 + a.Norm()*b.Norm()*math.Max(a.Norm(), b.Norm()))
		return math.Abs(c.Dot(a)) <= tol && math.Abs(c.Dot(b)) <= tol
	}
	cfg := &quick.Config{MaxCount: 500, Values: smallVecPair}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVec3NormalizedProperty(t *testing.T) {
	f := func(a Vec3) bool {
		n := a.Normalized()
		if a.Norm() < 1e-12 {
			return n == (Vec3{})
		}
		return math.Abs(n.Norm()-1) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 500, Values: smallVecSingle}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVec3Clamp(t *testing.T) {
	v := V3(10, -10, 0.5).Clamp(1)
	if v != V3(1, -1, 0.5) {
		t.Errorf("Clamp = %v", v)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.3, 0, 1) != 0.3 {
		t.Error("Clamp wrong")
	}
}
