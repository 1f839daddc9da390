package mathx

import (
	"math"
	"math/rand"
	"testing"
)

func TestDenseMul(t *testing.T) {
	a := DenseFrom([][]float64{{1, 2}, {3, 4}})
	b := DenseFrom([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := DenseFrom([][]float64{{19, 22}, {43, 50}})
	if c.MaxAbsDiff(want) > 1e-12 {
		t.Errorf("Mul = %+v", c)
	}
}

func TestDenseMulVec(t *testing.T) {
	a := DenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestDenseTranspose(t *testing.T) {
	a := DenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Errorf("Transpose wrong: %+v", at)
	}
}

func randomSPD(r *rand.Rand, n int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.NormFloat64())
		}
	}
	// A^T A + n*I is SPD
	spd := a.Transpose().Mul(a)
	for i := 0; i < n; i++ {
		spd.Addf(i, i, float64(n))
	}
	return spd
}

func TestCholeskySolve(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(8)
		m := randomSPD(r, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = r.NormFloat64()
		}
		b := m.MulVec(want)
		got, ok := m.SolveCholesky(b)
		if !ok {
			t.Fatalf("trial %d: SPD matrix rejected", trial)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d]=%v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := DenseFrom([][]float64{{1, 0}, {0, -1}})
	if _, ok := m.Cholesky(); ok {
		t.Error("indefinite matrix accepted by Cholesky")
	}
}

func TestCholeskyFactorProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(6)
		m := randomSPD(r, n)
		l, ok := m.Cholesky()
		if !ok {
			t.Fatal("SPD rejected")
		}
		if m.MaxAbsDiff(l.Mul(l.Transpose())) > 1e-8 {
			t.Fatalf("trial %d: L L^T != m", trial)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	m := DenseFrom([][]float64{{1, 2}, {4, 5}})
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Errorf("Symmetrize = %+v", m)
	}
}

func TestDenseAddSubScaleClone(t *testing.T) {
	a := DenseFrom([][]float64{{1, 2}, {3, 4}})
	b := DenseFrom([][]float64{{1, 1}, {1, 1}})
	if a.Add(b).At(1, 1) != 5 {
		t.Error("Add wrong")
	}
	if a.Sub(b).At(0, 0) != 0 {
		t.Error("Sub wrong")
	}
	if a.Scale(2).At(1, 0) != 6 {
		t.Error("Scale wrong")
	}
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Error("Clone aliases data")
	}
}

func TestDensePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	a := NewDense(2, 3)
	b := NewDense(2, 2)
	mustPanic("mul mismatch", func() { a.Mul(a) })
	mustPanic("add mismatch", func() { a.Add(b) })
	mustPanic("bad dims", func() { NewDense(0, 3) })
	mustPanic("ragged literal", func() { DenseFrom([][]float64{{1}, {1, 2}}) })
	mustPanic("symmetrize non-square", func() { a.Symmetrize() })
}

func TestDenseIdentity(t *testing.T) {
	id := DenseIdentity(4)
	a := randomSPD(rand.New(rand.NewSource(1)), 4)
	if a.Mul(id).MaxAbsDiff(a) > 1e-12 {
		t.Error("A*I != A")
	}
}
