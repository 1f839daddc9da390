package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

// TestMat3Identity checks that the identity leaves a vector unchanged and is
// its own inverse.
func TestMat3Identity(t *testing.T) {
	id := Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if got := id.MulVec(V3(1, -2, 3)); got != V3(1, -2, 3) {
		t.Errorf("I*v = %v", got)
	}
	if inv, ok := id.Inverse(); !ok || inv != id {
		t.Errorf("I^-1 = %v (ok %v)", inv, ok)
	}
}

func TestMat3MulVec(t *testing.T) {
	m := Mat3{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}
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
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			p := m[i][0]*inv[0][j] + m[i][1]*inv[1][j] + m[i][2]*inv[2][j]
			if math.Abs(p-delta(i, j)) > 1e-10 {
				t.Fatalf("m*inv != I at (%d,%d): %v", i, j, p)
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

func TestMat3TransposeDet(t *testing.T) {
	m := Mat3{{4, 7, 2}, {3, 6, 1}, {2, 5, 3}}
	mt := Mat3{{4, 3, 2}, {7, 6, 5}, {2, 1, 3}}
	if m.Det() != 9 || mt.Det() != m.Det() {
		t.Errorf("det(m) = %v, det(m^T) = %v, want 9", m.Det(), mt.Det())
	}
}

func TestMat3Trace(t *testing.T) {
	m := Mat3{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}}
	if m.Trace() != 6 {
		t.Errorf("Trace = %v", m.Trace())
	}
}

func TestRotationOrthonormal(t *testing.T) {
	f := func(q Quat) bool {
		m := q.Mat()
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ { // (m^T m)(i,j) = I(i,j)
				p := m[0][i]*m[0][j] + m[1][i]*m[1][j] + m[2][i]*m[2][j]
				if math.Abs(p-delta(i, j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Values: quatSingle}); err != nil {
		t.Error(err)
	}
}

// delta is the Kronecker delta, the (i, j) entry of the identity.
func delta(i, j int) float64 {
	if i == j {
		return 1
	}
	return 0
}
