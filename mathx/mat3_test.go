package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMat3Identity(t *testing.T) {
	m := Mat3{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	if got := Identity3().Mul(m); got != m {
		t.Errorf("I*m = %v", got)
	}
	if got := m.Mul(Identity3()); got != m {
		t.Errorf("m*I = %v", got)
	}
}

func TestMat3MulVec(t *testing.T) {
	m := Diag3(2, 3, 4)
	if got := m.MulVec(V3(1, 1, 1)); got != V3(2, 3, 4) {
		t.Errorf("diag mul = %v", got)
	}
}

func TestMat3Inverse(t *testing.T) {
	m := Mat3{{4, 7, 2}, {3, 6, 1}, {2, 5, 3}}
	inv, ok := m.Inverse()
	if !ok {
		t.Fatal("invertible matrix reported singular")
	}
	p := m.Mul(inv)
	id := Identity3()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(p[i][j]-id[i][j]) > 1e-10 {
				t.Fatalf("m*inv != I at (%d,%d): %v", i, j, p[i][j])
			}
		}
	}
}

func TestMat3SingularInverse(t *testing.T) {
	m := Mat3{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}} // row2 = 2*row1
	if _, ok := m.Inverse(); ok {
		t.Error("singular matrix reported invertible")
	}
}

func TestSkewIsCross(t *testing.T) {
	f := func(a, b Vec3) bool {
		got := Skew(a).MulVec(b)
		want := a.Cross(b)
		return got.Sub(want).Norm() < 1e-9*(1+a.Norm()*b.Norm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Values: smallVecPair}); err != nil {
		t.Error(err)
	}
}

func TestMat3TransposeDet(t *testing.T) {
	m := Mat3{{4, 7, 2}, {3, 6, 1}, {2, 5, 3}}
	if m.Transpose().Det() != m.Det() {
		t.Error("det(m^T) != det(m)")
	}
	if m.Transpose().Transpose() != m {
		t.Error("double transpose changed matrix")
	}
}

func TestMat3Trace(t *testing.T) {
	m := Diag3(1, 2, 3)
	if m.Trace() != 6 {
		t.Errorf("Trace = %v", m.Trace())
	}
}

func TestRotationOrthonormal(t *testing.T) {
	f := func(q Quat) bool {
		return q.Mat().IsOrthonormal(1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Values: quatSingle}); err != nil {
		t.Error(err)
	}
}
