package mathx

import (
	"fmt"
	"math"
)

// Dense is a dense row-major matrix of arbitrary (small) dimensions. It backs
// the EKF covariance updates and the normal equations solved by SLAM bundle
// adjustment. Dimensions are fixed at construction.
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

// DenseFrom builds a matrix from row slices; all rows must share a length.
func DenseFrom(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mathx: empty dense literal")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("mathx: ragged dense literal")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
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

// DenseIdentity returns the n x n identity.
func DenseIdentity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the row count.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Dense) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Addf adds v to element (i, j).
func (m *Dense) Addf(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Mul returns m * n, panicking on a dimension mismatch.
func (m *Dense) Mul(n *Dense) *Dense {
	if m.cols != n.rows {
		panic(fmt.Sprintf("mathx: Mul dimension mismatch %dx%d * %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	out := NewDense(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < n.cols; j++ {
				out.data[i*out.cols+j] += a * n.data[k*n.cols+j]
			}
		}
	}
	return out
}

// MulVec returns m * x for a vector x of length Cols.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic("mathx: MulVec dimension mismatch")
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Add returns m + n.
func (m *Dense) Add(n *Dense) *Dense {
	m.checkSame(n, "Add")
	out := m.Clone()
	for i := range out.data {
		out.data[i] += n.data[i]
	}
	return out
}

// Sub returns m - n.
func (m *Dense) Sub(n *Dense) *Dense {
	m.checkSame(n, "Sub")
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= n.data[i]
	}
	return out
}

// Scale returns s * m.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Transpose returns m^T.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

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

// Cholesky computes the lower-triangular L with m = L L^T for a symmetric
// positive-definite m, returning false when m is not (numerically) SPD.
func (m *Dense) Cholesky() (*Dense, bool) {
	if m.rows != m.cols {
		return nil, false
	}
	n := m.rows
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, false
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, true
}

// SolveCholesky solves m x = b for SPD m via Cholesky; ok is false when m is
// not SPD. b is not modified.
func (m *Dense) SolveCholesky(b []float64) (x []float64, ok bool) {
	l, ok := m.Cholesky()
	if !ok {
		return nil, false
	}
	n := m.rows
	if len(b) != n {
		panic("mathx: SolveCholesky rhs length mismatch")
	}
	// forward substitution: L y = b
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// back substitution: L^T x = y
	x = make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, true
}

// ---- In-place variants -------------------------------------------------
//
// The EKF runs its covariance algebra hundreds of times per simulated
// second per drone, and the allocating operators above were ~100% of the
// flight stack's steady-state heap churn. Each *Into/*Of method below is
// the bit-exact counterpart of its allocating sibling — identical loop
// structure, identical accumulation order — writing into caller-owned
// storage, so a scenario batch can step thousands of filters with zero
// steady-state allocations without perturbing a single result bit.

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
// shape. It is the in-place counterpart of Mul (same skip-zero loop, same
// accumulation order). m must not alias a or b.
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

// AddOf computes a + b into m (all same dimensions; m may alias a or b).
func (m *Dense) AddOf(a, b *Dense) {
	a.checkSame(b, "AddOf")
	m.checkSame(a, "AddOf")
	for i := range m.data {
		m.data[i] = a.data[i] + b.data[i]
	}
}

// ScaleInPlace multiplies every element by s.
func (m *Dense) ScaleInPlace(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// TransposeOf writes a^T into m (m must be a.cols x a.rows; no aliasing).
func (m *Dense) TransposeOf(a *Dense) {
	if m.rows != a.cols || m.cols != a.rows {
		panic(fmt.Sprintf("mathx: TransposeOf destination is %dx%d, want %dx%d", m.rows, m.cols, a.cols, a.rows))
	}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			m.data[j*m.cols+i] = a.data[i*a.cols+j]
		}
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
// returning false when m is not (numerically) SPD — the bit-exact in-place
// counterpart of Cholesky.
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
// factor S once and back-substitute per state row — same arithmetic, same
// order, as calling SolveCholesky per row.
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

// MaxAbsDiff returns max_ij |m_ij - n_ij|; useful in tests.
func (m *Dense) MaxAbsDiff(n *Dense) float64 {
	m.checkSame(n, "MaxAbsDiff")
	worst := 0.0
	for i := range m.data {
		if d := math.Abs(m.data[i] - n.data[i]); d > worst {
			worst = d
		}
	}
	return worst
}
