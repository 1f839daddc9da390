package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// denseOf builds a matrix from row literals.
func denseOf(rows ...[]float64) *Dense {
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// randDense returns an r x c matrix with deterministic pseudo-random entries.
func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// randSPD returns a random symmetric positive-definite n x n matrix,
// A Aᵀ + n I.
func randSPD(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n, n)
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a.At(i, k) * a.At(j, k)
			}
			m.Set(i, j, s)
		}
		m.Addf(i, i, float64(n))
	}
	return m
}

// poison fills m with NaN so a test proves a kernel overwrites every element.
func poison(m *Dense) {
	for i := range m.data {
		m.data[i] = math.NaN()
	}
}

// wantExact fails unless got holds exactly the want rows, down to the bits.
func wantExact(t *testing.T, name string, got *Dense, want ...[]float64) {
	t.Helper()
	if got.rows != len(want) || got.cols != len(want[0]) {
		t.Fatalf("%s is %dx%d, want %dx%d", name, got.rows, got.cols, len(want), len(want[0]))
	}
	for i, r := range want {
		for j, v := range r {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(v) {
				t.Fatalf("%s(%d,%d) = %v, want %v", name, i, j, got.At(i, j), v)
			}
		}
	}
}

func TestDenseMul(t *testing.T) {
	got := NewDense(2, 2)
	poison(got)
	got.MulOf(denseOf([]float64{1, 2}, []float64{3, 4}), denseOf([]float64{5, 6}, []float64{7, 8}))
	wantExact(t, "square product", got, []float64{19, 22}, []float64{43, 50})

	// A 2x3 times 3x2 product with a zero entry, so the skip-zero path runs.
	got = NewDense(2, 2)
	poison(got)
	got.MulOf(denseOf([]float64{1, 0, 3}, []float64{4, 5, 6}),
		denseOf([]float64{1, 2}, []float64{3, 4}, []float64{5, 6}))
	wantExact(t, "rectangular product", got, []float64{16, 20}, []float64{49, 64})
}

// TestDenseMulVec multiplies by a column vector, an n x 1 matrix.
func TestDenseMulVec(t *testing.T) {
	got := NewDense(2, 1)
	poison(got)
	got.MulOf(denseOf([]float64{1, 2, 3}, []float64{4, 5, 6}), denseOf([]float64{1}, []float64{1}, []float64{1}))
	wantExact(t, "A·1", got, []float64{6}, []float64{15})
}

// TestDenseTranspose checks the identity (A B)ᵀ = Bᵀ Aᵀ, with the
// transposes written out by hand.
func TestDenseTranspose(t *testing.T) {
	a := denseOf([]float64{1, 2, 3}, []float64{4, 5, 6})
	at := denseOf([]float64{1, 4}, []float64{2, 5}, []float64{3, 6})
	b := denseOf([]float64{7, 8}, []float64{9, 10}, []float64{11, 12})
	bt := denseOf([]float64{7, 9, 11}, []float64{8, 10, 12})
	ab, btat := NewDense(2, 2), NewDense(2, 2)
	ab.MulOf(a, b)
	btat.MulOf(bt, at)
	wantExact(t, "A B", ab, []float64{58, 64}, []float64{139, 154})
	wantExact(t, "Bᵀ Aᵀ", btat, []float64{58, 139}, []float64{64, 154})
}

// TestDenseIdentity checks SetIdentity and that A I = A to the bit.
func TestDenseIdentity(t *testing.T) {
	m := NewDense(3, 3)
	poison(m)
	m.SetIdentity()
	wantExact(t, "identity", m, []float64{1, 0, 0}, []float64{0, 1, 0}, []float64{0, 0, 1})

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		r, c := 1+rng.Intn(7), 1+rng.Intn(7)
		a := randDense(rng, r, c)
		id := NewDense(c, c)
		id.SetIdentity()
		got := NewDense(r, c)
		poison(got)
		got.MulOf(a, id)
		for i := range a.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(a.data[i]) {
				t.Fatalf("trial %d: (A·I)[%d] = %v, want %v", trial, i, got.data[i], a.data[i])
			}
		}
	}
}

// TestDenseAddSubScaleClone checks the elementwise in-place updates: Addf
// adds and, with a negative argument, subtracts; ScaleInPlace scales.
func TestDenseAddSubScaleClone(t *testing.T) {
	m := denseOf([]float64{1, -2}, []float64{0.5, 4})
	m.Addf(0, 0, 4)
	m.Addf(1, 1, -1)
	wantExact(t, "m after Addf", m, []float64{5, -2}, []float64{0.5, 3})
	m.ScaleInPlace(3)
	wantExact(t, "3·m", m, []float64{15, -6}, []float64{1.5, 9})
}

func TestSymmetrize(t *testing.T) {
	m := denseOf([]float64{1, 2}, []float64{4, 5})
	m.Symmetrize()
	wantExact(t, "sym(m)", m, []float64{1, 3}, []float64{3, 5})
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	for _, bad := range []*Dense{
		denseOf([]float64{1, 2}, []float64{2, 1}),  // indefinite
		denseOf([]float64{1, 0}, []float64{0, -1}), // negative pivot
	} {
		if bad.CholeskyInto(NewDense(2, 2)) {
			t.Errorf("CholeskyInto accepted %v", bad.data)
		}
	}
	if NewDense(2, 2).CholeskyInto(NewDense(3, 3)) {
		t.Error("CholeskyInto accepted a factor of the wrong size")
	}
}

// TestCholeskyFactorProperty checks a hand-computed factor, then L Lᵀ = A
// and that L is lower triangular for random SPD matrices.
func TestCholeskyFactorProperty(t *testing.T) {
	l := NewDense(2, 2)
	poison(l)
	if !denseOf([]float64{4, 2}, []float64{2, 10}).CholeskyInto(l) {
		t.Fatal("SPD matrix rejected")
	}
	wantExact(t, "L", l, []float64{2, 0}, []float64{1, 3})

	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		l := NewDense(n, n)
		poison(l)
		if !a.CholeskyInto(l) {
			t.Fatalf("trial %d: SPD matrix rejected", trial)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j > i && l.At(i, j) != 0 {
					t.Fatalf("trial %d: L(%d,%d) = %v above the diagonal", trial, i, j, l.At(i, j))
				}
				s := 0.0
				for k := 0; k < n; k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				if d := math.Abs(s - a.At(i, j)); d > 1e-12*(1+math.Abs(a.At(i, j))) {
					t.Fatalf("trial %d: (L Lᵀ)(%d,%d) = %v, want %v", trial, i, j, s, a.At(i, j))
				}
			}
		}
	}
}

// TestCholeskySolve checks that a hand-computed system solves exactly, and
// that the solution of A x = b leaves a residual at rounding level.
func TestCholeskySolve(t *testing.T) {
	l := NewDense(2, 2)
	denseOf([]float64{4, 2}, []float64{2, 10}).CholeskyInto(l)
	x, y := make([]float64, 2), make([]float64, 2)
	SolveWithCholesky(l, []float64{8, 22}, x, y) // A (1, 2)ᵀ = (8, 22)ᵀ
	if x[0] != 1 || x[1] != 2 {
		t.Fatalf("x = %v, want [1 2]", x)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		l := NewDense(n, n)
		if !a.CholeskyInto(l) {
			t.Fatalf("trial %d: SPD matrix rejected", trial)
		}
		x, y := make([]float64, n), make([]float64, n)
		SolveWithCholesky(l, b, x, y)
		for i := 0; i < n; i++ {
			r := -b[i]
			for j := 0; j < n; j++ {
				r += a.At(i, j) * x[j]
			}
			if math.Abs(r) > 1e-12*float64(n) {
				t.Fatalf("trial %d: residual (A x - b)[%d] = %v", trial, i, r)
			}
		}
	}
}

func TestReshapeZeroesAndResizes(t *testing.T) {
	backing := make([]float64, 36)
	m := DenseOn(backing, 6, 6)
	m.Set(0, 0, 42)
	m.Reshape(2, 3)
	wantExact(t, "reshaped", &m, []float64{0, 0, 0}, []float64{0, 0, 0})
	m.Reshape(6, 6) // grow back within capacity
	if m.rows != 6 || m.cols != 6 {
		t.Fatalf("Reshape gave %dx%d, want 6x6", m.rows, m.cols)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape beyond capacity did not panic")
		}
	}()
	m.Reshape(7, 7)
}

func TestCopyFromCopies(t *testing.T) {
	src := denseOf([]float64{1, 2}, []float64{3, 4})
	dst := NewDense(2, 2)
	dst.CopyFrom(src)
	src.Set(0, 0, -1) // dst must own its data
	wantExact(t, "copy", dst, []float64{1, 2}, []float64{3, 4})
}

func TestDenseOnSharesStorage(t *testing.T) {
	backing := make([]float64, 12)
	m := DenseOn(backing, 3, 4)
	m.Set(1, 2, 9)
	if backing[1*4+2] != 9 {
		t.Fatal("DenseOn does not view the caller storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DenseOn with short storage did not panic")
		}
	}()
	DenseOn(backing, 4, 4)
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
	mustPanic("mul mismatch", func() { b.MulOf(a, a) })
	mustPanic("mul destination", func() { a.MulOf(b, b) })
	mustPanic("copy mismatch", func() { a.CopyFrom(b) })
	mustPanic("bad dims", func() { NewDense(0, 3) })
	mustPanic("symmetrize non-square", func() { a.Symmetrize() })
	mustPanic("identity non-square", func() { a.SetIdentity() })
	mustPanic("solve length", func() { SolveWithCholesky(b, make([]float64, 3), make([]float64, 2), make([]float64, 2)) })
}
