package estimation

import (
	"math"
	"math/rand"
	"testing"

	"dronedse/mathx"
	"dronedse/sensors"
)

// densePredictCovariance is the dense covariance prediction that
// predictCovariance replaced: F and Q built element by element, then
// P = sym(F P F^T + Q) through MulOf, MulOf, an elementwise add and
// Symmetrize.
func densePredictCovariance(p *mathx.Dense, dt, accelNoise float64) {
	s2 := accelNoise * accelNoise
	f := mathx.NewDense(6, 6)
	f.SetIdentity()
	for i := 0; i < 3; i++ {
		f.Set(i, 3+i, dt)
	}
	ft := transposed(f, 6)
	q := mathx.NewDense(6, 6)
	for i := 0; i < 3; i++ {
		q.Set(i, i, 0.25*dt*dt*dt*dt*s2)
		q.Set(i, 3+i, 0.5*dt*dt*dt*s2)
		q.Set(3+i, i, 0.5*dt*dt*dt*s2)
		q.Set(3+i, 3+i, dt*dt*s2)
	}
	t1, t2 := mathx.NewDense(6, 6), mathx.NewDense(6, 6)
	t1.MulOf(f, p)
	t2.MulOf(t1, ft)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			p.Set(i, j, t2.At(i, j)+q.At(i, j))
		}
	}
	p.Symmetrize()
}

// transposed returns the transpose of the n x n matrix a.
func transposed(a *mathx.Dense, n int) *mathx.Dense {
	at := mathx.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	return at
}

// covarianceOf copies the filter's covariance.
func covarianceOf(k *PosVelEKF) *mathx.Dense {
	p := mathx.NewDense(6, 6)
	p.CopyFrom(&k.p)
	return p
}

// randomCovariance returns a random SPD 6x6 matrix A A^T + diag, then
// punches exact +0 and -0 holes into it (symmetric and one-sided, whole
// rows included) so the zero-skipping paths of the dense algebra run.
func randomCovariance(rng *rand.Rand) *mathx.Dense {
	a := mathx.NewDense(6, 6)
	scale := math.Pow(10, float64(rng.Intn(9)-4))
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			a.Set(i, j, rng.NormFloat64()*scale)
		}
	}
	p := mathx.NewDense(6, 6)
	p.MulOf(a, transposed(a, 6))
	for i := 0; i < 6; i++ {
		p.Addf(i, i, rng.Float64()*scale)
	}
	negZero := math.Copysign(0, -1)
	for n := rng.Intn(8); n > 0; n-- {
		i, j := rng.Intn(6), rng.Intn(6)
		z := 0.0
		if rng.Intn(2) == 0 {
			z = negZero
		}
		p.Set(i, j, z)
		if rng.Intn(3) > 0 {
			p.Set(j, i, z)
		}
	}
	switch rng.Intn(4) {
	case 0: // a whole row and column of -0 (an unobserved state)
		r := rng.Intn(6)
		for j := 0; j < 6; j++ {
			p.Set(r, j, negZero)
			p.Set(j, r, negZero)
		}
	case 1: // all-zero covariance
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				p.Set(i, j, 0)
			}
		}
	}
	return p
}

// TestPredictCovarianceBitExact pins the closed-form prediction to the
// dense path it replaced, bit for bit (Float64bits, so -0 and +0 differ),
// over random covariances with exact zeros and several step sizes.
// Equivalence is claimed for finite P only.
func TestPredictCovarianceBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dts := []float64{1.0 / 200, 1.0 / 1000, 1.0 / 6, 0.1, 1, 3.5, 1e-160}
	noises := []float64{0.8, 0, 2.5}
	for trial := 0; trial < 2000; trial++ {
		p0 := randomCovariance(rng)
		dt := dts[trial%len(dts)]
		noise := noises[trial%len(noises)]
		if trial%5 == 0 {
			dt = rng.Float64() * 0.05
		}
		want := mathx.NewDense(6, 6)
		want.CopyFrom(p0)
		densePredictCovariance(want, dt, noise)
		var arr [36]float64
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				arr[i*6+j] = p0.At(i, j)
			}
		}
		predictCovariance(&arr, dt, noise)
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				g, w := arr[i*6+j], want.At(i, j)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("trial %d (dt=%g, noise=%g): P[%d][%d] = %v (%#x), dense path %v (%#x)",
						trial, dt, noise, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

// TestPredictMatchesDenseFilter drives a filter through predicts and
// updates and checks every predicted covariance against the dense path
// applied to the pre-predict covariance.
func TestPredictMatchesDenseFilter(t *testing.T) {
	k := new(PosVelEKF)
	k.init()
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 4000; step++ {
		before := covarianceOf(k)
		accel := mathx.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		k.Predict(accel, 1.0/200)
		densePredictCovariance(before, 1.0/200, k.AccelNoise)
		got := &k.p
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(before.At(i, j)) {
					t.Fatalf("step %d: P[%d][%d] = %v, dense path %v", step, i, j, got.At(i, j), before.At(i, j))
				}
			}
		}
		if step%40 == 0 {
			k.UpdateGPS(gpsFix(rng), 0.8, 0.1)
		}
		if step%13 == 0 {
			k.UpdateBaro(rng.NormFloat64(), 0.15)
		}
	}
}

func gpsFix(rng *rand.Rand) sensors.GPSSample {
	return sensors.GPSSample{
		Pos: mathx.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()),
		Vel: mathx.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()),
	}
}

// BenchmarkEKFPredict measures one 200 Hz covariance-and-state prediction.
func BenchmarkEKFPredict(b *testing.B) {
	k := new(PosVelEKF)
	k.init()
	accel := mathx.V3(0.1, -0.2, 0.05)
	k.Predict(accel, 1.0/200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Predict(accel, 1.0/200)
	}
}
