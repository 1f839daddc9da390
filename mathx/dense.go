package mathx

import (
	"fmt"
	"math"
)

// Dense is a dense row-major matrix of arbitrary (small) dimensions. It backs
// the EKF covariance updates and the normal equations solved by SLAM bundle
// adjustment. Dimensions are set at construction, and Reshape changes them
// within the backing capacity.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns an r x c zero matrix.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mathx: invalid dense dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// DenseOn returns an r x c matrix viewing caller-owned storage (len must be
// at least r*c; extra capacity allows later Reshape growth). The storage is
// not cleared — callers embedding Dense values in a scratch arena zero it at
// allocation. Returned by value so arenas can hold matrices without per-
// matrix header allocations.
func DenseOn(data []float64, r, c int) Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mathx: invalid dense dimensions %dx%d", r, c))
	}
	if r*c > len(data) {
		panic(fmt.Sprintf("mathx: DenseOn %dx%d exceeds storage length %d", r, c, len(data)))
	}
	return Dense{rows: r, cols: c, data: data[:r*c]}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Addf adds v to element (i, j).
func (m *Dense) Addf(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Symmetrize overwrites m with (m + m^T)/2; m must be square. It keeps EKF
// covariances symmetric in the presence of floating-point drift.
func (m *Dense) Symmetrize() {
	if m.rows != m.cols {
		panic("mathx: Symmetrize needs a square matrix")
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

func (m *Dense) checkSame(n *Dense, op string) {
	if m.rows != n.rows || m.cols != n.cols {
		panic(fmt.Sprintf("mathx: %s dimension mismatch %dx%d vs %dx%d", op, m.rows, m.cols, n.rows, n.cols))
	}
}

// The algebra below writes into caller-owned storage: the EKF runs it
// hundreds of times per simulated second per drone, and SLAM once per pose
// optimisation step, so a scenario batch can step thousands of filters with
// zero steady-state allocations.

// Reshape resizes m to r x c reusing its backing array, zeroing the data
// exactly as NewDense would. It panics when the backing capacity is too
// small — scratch matrices are sized for their worst case at construction.
func (m *Dense) Reshape(r, c int) {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mathx: invalid dense dimensions %dx%d", r, c))
	}
	if r*c > cap(m.data) {
		panic(fmt.Sprintf("mathx: Reshape %dx%d exceeds backing capacity %d", r, c, cap(m.data)))
	}
	m.rows, m.cols = r, c
	m.data = m.data[:r*c]
	for i := range m.data {
		m.data[i] = 0
	}
}

// CopyFrom overwrites m with n (same dimensions).
func (m *Dense) CopyFrom(n *Dense) {
	m.checkSame(n, "CopyFrom")
	copy(m.data, n.data)
}

// MulOf computes a * b into m, which must already have a.rows x b.cols
// shape. Each element accumulates over k in order, skipping zero entries of
// a. m must not alias a or b.
func (m *Dense) MulOf(a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mathx: MulOf dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if m.rows != a.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mathx: MulOf destination is %dx%d, want %dx%d", m.rows, m.cols, a.rows, b.cols))
	}
	for i := range m.data {
		m.data[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			v := a.data[i*a.cols+k]
			if v == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				m.data[i*m.cols+j] += v * b.data[k*b.cols+j]
			}
		}
	}
}

// ScaleInPlace multiplies every element by s.
func (m *Dense) ScaleInPlace(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// SetIdentity overwrites a square m with the identity.
func (m *Dense) SetIdentity() {
	if m.rows != m.cols {
		panic("mathx: SetIdentity needs a square matrix")
	}
	for i := range m.data {
		m.data[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] = 1
	}
}

// CholeskyInto factors m = L L^T into the caller-owned l (same dimensions),
// returning false when m is not (numerically) SPD.
func (m *Dense) CholeskyInto(l *Dense) bool {
	if m.rows != m.cols || l.rows != m.rows || l.cols != m.cols {
		return false
	}
	n := m.rows
	for i := range l.data {
		l.data[i] = 0
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return false
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return true
}

// SolveWithCholesky solves L L^T x = b given an already-computed Cholesky
// factor l, writing the solution into x using y as scratch (all length n).
// Splitting the factorization from the solves lets a Kalman gain computation
// factor S once and back-substitute per state row.
func SolveWithCholesky(l *Dense, b, x, y []float64) {
	n := l.rows
	if len(b) != n || len(x) != n || len(y) != n {
		panic("mathx: SolveWithCholesky length mismatch")
	}
	// forward substitution: L y = b
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// back substitution: L^T x = y
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}
