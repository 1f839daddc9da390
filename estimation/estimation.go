// Package estimation is the shared-libraries layer of the stack (Figure 5):
// sensor fusion producing the state estimate the inner loop controls
// against. It provides a quaternion complementary filter for attitude and a
// six-state extended Kalman filter (position + velocity) fusing IMU
// dead-reckoning with GPS and barometer — the EKF the paper names as the
// canonical shared-library algorithm.
package estimation

import (
	"math"

	"dronedse/mathx"
	"dronedse/sensors"
	"dronedse/units"
)

// AttitudeFilter is a Mahony-style quaternion complementary filter: gyro
// integration corrected toward the accelerometer gravity direction
// (roll/pitch) and the magnetometer heading (yaw), with on-line gyro-bias
// estimation driven by the accel correction (the Mahony Ki term). The low
// proportional gain keeps sustained-acceleration specific force from
// polluting the attitude; the bias integrator removes the slow gyro drift
// that low gain would otherwise leave behind.
type AttitudeFilter struct {
	// AccelGain blends the accel correction per second (small: trust gyro
	// short-term).
	AccelGain float64
	// BiasGain integrates the persistent correction into a gyro-bias
	// estimate.
	BiasGain float64
	// MagGain blends the yaw correction per second.
	MagGain float64

	q    mathx.Quat
	bias mathx.Vec3
}

// init (re)starts f level with zero gyro-bias estimate.
func (f *AttitudeFilter) init() {
	*f = AttitudeFilter{AccelGain: 0.15, BiasGain: 0.03, MagGain: 0.3, q: mathx.QuatIdentity()}
}

// PredictGyro integrates the bias-corrected body rate over dt.
func (f *AttitudeFilter) PredictGyro(gyro mathx.Vec3, dt float64) {
	f.q = f.q.Integrate(gyro.Sub(f.bias), dt)
}

// CorrectAccel nudges roll/pitch so the measured specific force aligns with
// gravity and integrates the residual into the gyro-bias estimate. Valid
// when the vehicle is not accelerating hard; the filter gates on the
// measured norm being near g.
func (f *AttitudeFilter) CorrectAccel(accel mathx.Vec3, dt float64) {
	n := accel.Norm()
	if n < 0.5*units.Gravity || n > 1.5*units.Gravity {
		return // dynamic maneuver: accel direction is not gravity
	}
	// Gravity direction in body frame per current estimate vs measured.
	est := f.q.RotateInv(mathx.V3(0, 0, 1))
	meas := accel.Normalized()
	e := est.Cross(meas) // error rotation axis, body frame
	f.q = f.q.Integrate(e.Scale(f.AccelGain*dt).Neg(), 1).Normalized()
	// Mahony Ki: a persistent correction means the gyro is biased.
	f.bias = f.bias.Add(e.Scale(f.BiasGain * dt)).Clamp(0.05)
}

// CorrectYaw nudges the heading toward a magnetometer yaw measurement.
func (f *AttitudeFilter) CorrectYaw(yawMeas float64, dt float64) {
	_, _, yaw := f.q.Euler()
	err := wrapAngle(yawMeas - yaw)
	f.q = mathx.QuatFromAxisAngle(mathx.V3(0, 0, 1), err*f.MagGain*dt).Mul(f.q).Normalized()
}

// Attitude returns the current estimate.
func (f *AttitudeFilter) Attitude() mathx.Quat { return f.q }

func wrapAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a < -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// PosVelEKF is a six-state [px py pz vx vy vz] extended Kalman filter.
// Prediction integrates the world-frame acceleration recovered from the IMU
// specific force and the attitude estimate; updates fuse GPS position,
// GPS velocity, and barometric altitude at their Table 2a rates.
//
// The filter is alloc-free in steady state: all matrix and vector scratch
// lives in one contiguous arena carved out at construction. The covariance
// prediction runs in closed form (see predictCovariance) and every update is
// the bit-exact sibling of the original allocating algebra, so results are
// unchanged while a scenario batch can step thousands of filters without
// touching the heap.
type PosVelEKF struct {
	arena []float64   // every slice and matrix below is carved out of it
	x     []float64   // state
	p     mathx.Dense // covariance
	pd    []float64   // p's row-major backing storage, for predictCovariance

	// Stats is the filter's work ledger (see EKFStats); it only counts, so
	// reading it never perturbs the filter state.
	Stats EKFStats

	// AccelNoise is the process noise driven by accelerometer error
	// (m/s^2, 1-sigma).
	AccelNoise float64

	// Scratch (arena-backed): a 6x6 temporary for (I - K H) P, and the
	// update-path workspace sized for the largest (GPS, m=6) measurement,
	// Reshaped down for smaller ones.
	t1           mathx.Dense
	s, pht       mathx.Dense // innovation covariance, P H^T
	kg, kh, imkh mathx.Dense // Kalman gain, K H, I - K H
	l            mathx.Dense // Cholesky factor of s
	innov        []float64
	row, sol, ys []float64
	zbuf, rbuf   []float64
}

// ekfArenaFloats is the arena footprint: state(6) + 8 6x6 matrices
// (covariance and the update scratch set) + 4 length-6 work vectors + the
// z/r measurement buffers.
const ekfArenaFloats = 6 + 8*36 + 4*6 + 2*6

// init (re)starts the filter at the origin with loose covariance, zeroing
// and re-carving the arena it already owns.
func (k *PosVelEKF) init() {
	arena := k.arena
	if arena == nil {
		arena = make([]float64, ekfArenaFloats)
	} else {
		clear(arena)
	}
	rest := arena
	take := func(n int) []float64 {
		s := rest[:n:n]
		rest = rest[n:]
		return s
	}
	mat := func() mathx.Dense { return mathx.DenseOn(take(36), 6, 6) }
	x, pd := take(6), take(36)
	*k = PosVelEKF{
		arena:      arena,
		x:          x,
		p:          mathx.DenseOn(pd, 6, 6),
		pd:         pd,
		AccelNoise: 0.8,
		t1:         mat(),
		s:          mat(),
		pht:        mat(),
		kg:         mat(),
		kh:         mat(),
		imkh:       mat(),
		l:          mat(),
		innov:      take(6),
		row:        take(6),
		sol:        take(6),
		ys:         take(6),
		zbuf:       take(6),
		rbuf:       take(6),
	}
	k.p.SetIdentity()
	k.p.ScaleInPlace(10)
}

// Predict advances the state with a world-frame acceleration over dt.
func (k *PosVelEKF) Predict(accelWorld mathx.Vec3, dt float64) {
	if dt <= 0 {
		return
	}
	k.Stats.Predicts++
	k.Stats.PredictOps += ekfPredictOps
	a := [3]float64{accelWorld.X, accelWorld.Y, accelWorld.Z}
	for i := 0; i < 3; i++ {
		k.x[i] += k.x[3+i]*dt + 0.5*a[i]*dt*dt
		k.x[3+i] += a[i] * dt
	}
	predictCovariance((*[36]float64)(k.pd), dt, k.AccelNoise)
}

// predictCovariance sets P = sym(F P F^T + Q) for F = [I, dt*I; 0, I] and
// the white-acceleration Q, bit-identical to the dense sequence it replaces
// (t1 = F P and t2 = t1 F^T by Dense.MulOf, P = t2 + Q elementwise, then
// Symmetrize) for every finite P.
//
// The rounding argument: MulOf zeroes its destination and accumulates, in k
// order, v*b[k][j] for each nonzero left entry v. For F P that leaves
// (0 + P[i][j]) + dt*P[i+3][j] in rows i < 3 and 0 + P[i][j] below. For
// t1 F^T the left operand is data, so MulOf also adds the products of t1
// with F^T's zeros; for finite t1 those are ±0, and adding ±0 to an
// accumulator that started at +0 changes nothing, because such a sum is
// never -0. t1's entries are such sums too, so 0 + t1[i][j] is t1[i][j],
// which leaves t1[i][j] + t1[i][j+3]*dt in columns j < 3 and t1[i][j] in
// the rest; the same argument drops Q's zero entries. Equivalence is
// claimed for finite P only: the dense path turns an infinite entry into
// NaN through 0*Inf where this form keeps Inf, and no flight reaches that.
func predictCovariance(p *[36]float64, dt, accelNoise float64) {
	s2 := accelNoise * accelNoise
	q11 := 0.25 * dt * dt * dt * dt * s2
	q12 := 0.5 * dt * dt * dt * s2
	q22 := dt * dt * s2

	var t [36]float64
	// t = F P: rows i < 3 gain dt times row i+3.
	for i := 0; i < 3; i++ {
		for j := 0; j < 6; j++ {
			t[i*6+j] = (0 + p[i*6+j]) + dt*p[(i+3)*6+j]
			t[(i+3)*6+j] = 0 + p[(i+3)*6+j]
		}
	}
	// t = t F^T: columns j < 3 gain dt times column j+3.
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			t[i*6+j] += t[i*6+j+3] * dt
		}
	}
	// t += Q.
	for i := 0; i < 3; i++ {
		t[i*6+i] += q11
		t[i*6+i+3] += q12
		t[(i+3)*6+i] += q12
		t[(i+3)*6+i+3] += q22
	}
	// P = (t + t^T)/2 off the diagonal, exactly as Dense.Symmetrize.
	for i := 0; i < 6; i++ {
		p[i*6+i] = t[i*6+i]
		for j := i + 1; j < 6; j++ {
			v := 0.5 * (t[i*6+j] + t[j*6+i])
			p[i*6+j] = v
			p[j*6+i] = v
		}
	}
}

// update applies a linear measurement z = H x + v with noise variances r.
func (k *PosVelEKF) update(idx []int, z, r []float64) {
	m := len(idx)
	k.Stats.Updates++
	k.Stats.UpdateOps += ekfUpdateOps(m)
	// S = H P H^T + R, computed directly from the indexed rows/cols.
	k.s.Reshape(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			k.s.Set(i, j, k.p.At(idx[i], idx[j]))
		}
		k.s.Addf(i, i, r[i])
	}
	// K = P H^T S^-1 — factor S once, then back-substitute per state row.
	k.pht.Reshape(6, m)
	for i := 0; i < 6; i++ {
		for j := 0; j < m; j++ {
			k.pht.Set(i, j, k.p.At(i, idx[j]))
		}
	}
	// innovation
	innov := k.innov[:m]
	for j := 0; j < m; j++ {
		innov[j] = z[j] - k.x[idx[j]]
	}
	// gain rows: for each state i, K_i = row_i(P H^T) S^-1, i.e. solve
	// S y = (P H^T)_i^T since S is symmetric. The factorization is shared
	// across rows (S does not change), which is arithmetically identical
	// to factoring per row.
	k.l.Reshape(m, m)
	if !k.s.CholeskyInto(&k.l) {
		return // measurement rejected; covariance degenerate
	}
	k.kg.Reshape(6, m)
	row, sol, ys := k.row[:m], k.sol[:m], k.ys[:m]
	for i := 0; i < 6; i++ {
		for j := 0; j < m; j++ {
			row[j] = k.pht.At(i, j)
		}
		mathx.SolveWithCholesky(&k.l, row, sol, ys)
		for j := 0; j < m; j++ {
			k.kg.Set(i, j, sol[j])
		}
	}
	// x += K innov
	for i := 0; i < 6; i++ {
		for j := 0; j < m; j++ {
			k.x[i] += k.kg.At(i, j) * innov[j]
		}
	}
	// P = (I - K H) P : (KH)_{i,l} = sum_j K_{i,j} [l == idx[j]]
	k.kh.Reshape(6, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < m; j++ {
			k.kh.Addf(i, idx[j], k.kg.At(i, j))
		}
	}
	k.imkh.SetIdentity()
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			k.imkh.Addf(i, j, -k.kh.At(i, j))
		}
	}
	k.t1.MulOf(&k.imkh, &k.p)
	k.p.CopyFrom(&k.t1)
	k.p.Symmetrize()
}

// Measurement index sets (package-level so updates allocate nothing).
var (
	gpsIdx  = []int{0, 1, 2, 3, 4, 5}
	baroIdx = []int{2}
)

// UpdateGPS fuses a GPS fix (position + velocity).
func (k *PosVelEKF) UpdateGPS(fix sensors.GPSSample, posStd, velStd float64) {
	z, r := k.zbuf[:6], k.rbuf[:6]
	z[0], z[1], z[2] = fix.Pos.X, fix.Pos.Y, fix.Pos.Z
	z[3], z[4], z[5] = fix.Vel.X, fix.Vel.Y, fix.Vel.Z
	r[0], r[1], r[2] = posStd*posStd, posStd*posStd, posStd*posStd*2.25
	r[3], r[4], r[5] = velStd*velStd, velStd*velStd, velStd*velStd
	k.update(gpsIdx, z, r)
}

// UpdateBaro fuses a barometric altitude.
func (k *PosVelEKF) UpdateBaro(alt float64, std float64) {
	z, r := k.zbuf[:1], k.rbuf[:1]
	z[0] = alt
	r[0] = std * std
	k.update(baroIdx, z, r)
}

// InflateCovariance scales the covariance by factor (> 1 grows the
// uncertainty). Coasting through a declared sensor outage inflates instead
// of fusing, so the filter's confidence honestly decays and the first
// post-outage measurements are accepted rather than gated away.
func (k *PosVelEKF) InflateCovariance(factor float64) {
	if factor <= 1 {
		return
	}
	k.p.ScaleInPlace(factor)
	k.p.Symmetrize()
}

// AddCoastVariance adds posVar to the horizontal position variances and
// velVar to the horizontal velocity variances. Coasting uses it to model
// the systematic dead-reckoning drift (attitude error tilting gravity into
// the horizontal) that zero-mean process noise cannot represent.
func (k *PosVelEKF) AddCoastVariance(posVar, velVar float64) {
	if posVar > 0 {
		k.p.Addf(0, 0, posVar)
		k.p.Addf(1, 1, posVar)
	}
	if velVar > 0 {
		k.p.Addf(3, 3, velVar)
		k.p.Addf(4, 4, velVar)
	}
}

// PositionUncertainty returns the 1-sigma horizontal position uncertainty —
// the health signal an autopilot failsafe watches during GPS dropouts.
func (k *PosVelEKF) PositionUncertainty() float64 {
	return math.Sqrt(math.Max(k.p.At(0, 0), k.p.At(1, 1)))
}

// Position returns the position estimate.
func (k *PosVelEKF) Position() mathx.Vec3 { return mathx.V3(k.x[0], k.x[1], k.x[2]) }

// Velocity returns the velocity estimate.
func (k *PosVelEKF) Velocity() mathx.Vec3 { return mathx.V3(k.x[3], k.x[4], k.x[5]) }

// coastInflationPerS is the covariance growth rate applied while coasting
// through a declared outage: ~5%/s of extra uncertainty on top of the
// normal process noise, so minute-long denials do not blow the filter up
// numerically but the uncertainty signal still rises monotonically.
const coastInflationPerS = 0.05

// coastDriftAccelMS2 is the 1-sigma uncompensated horizontal acceleration
// while dead-reckoning without GPS: a degree or two of attitude error tilts
// gravity into the horizontal (g·sin 2.5° ≈ 0.4 m/s²), and nothing corrects
// it until position measurements return. The resulting 0.5·a·t² position
// drift is the dominant coasting error, so the covariance must grow at that
// rate for PositionUncertainty to be an honest failsafe signal.
const coastDriftAccelMS2 = 0.4

// Estimator couples the attitude filter and the EKF into the full fusion
// stack consumed by the autopilot.
type Estimator struct {
	Att *AttitudeFilter
	Pos *PosVelEKF

	// declared sensor outages: while set, the corresponding measurements
	// are refused (stuck samples must not be ingested) and the EKF coasts
	// with covariance inflation.
	gpsOut  bool
	baroOut bool
	magOut  bool
	// coastS is how long the GPS outage has been running (drift clock).
	coastS float64
	// Rejected counts measurements refused because of a declared outage.
	Rejected int
}

// Init (re)initialises e in place as the default estimator, restarting its
// attitude filter and EKF inside the storage they already own.
func (e *Estimator) Init() {
	att, pos := e.Att, e.Pos
	if att == nil {
		att = new(AttitudeFilter)
	}
	if pos == nil {
		pos = new(PosVelEKF)
	}
	att.init()
	pos.init()
	*e = Estimator{Att: att, Pos: pos}
}

// DeclareOutage marks a sensor (sensors.SensorGPS/SensorBaro/SensorMag) as
// known-bad or recovered. While declared, the estimator coasts: it refuses
// that sensor's measurements and inflates the covariance instead, which is
// the graceful-degradation contract fault injection tests against.
func (e *Estimator) DeclareOutage(sensor string, active bool) {
	switch sensor {
	case sensors.SensorGPS:
		e.gpsOut = active
		if !active {
			e.coastS = 0
		}
	case sensors.SensorBaro:
		e.baroOut = active
	case sensors.SensorMag:
		e.magOut = active
	}
}

// OnIMU processes one IMU sample: attitude prediction/correction plus EKF
// prediction using the specific force rotated by the attitude estimate.
func (e *Estimator) OnIMU(s sensors.IMUSample, dt float64) {
	e.Att.PredictGyro(s.Gyro, dt)
	e.Att.CorrectAccel(s.Accel, dt)
	accelWorld := e.Att.Attitude().Rotate(s.Accel).Sub(mathx.V3(0, 0, units.Gravity))
	e.Pos.Predict(accelWorld, dt)
	if e.gpsOut {
		e.Pos.InflateCovariance(1 + coastInflationPerS*dt)
		// Systematic dead-reckoning drift: std grows as 0.5·a·t² in
		// position and a·t in velocity; add the per-step variance delta.
		prev := e.coastS
		e.coastS += dt
		posStep := sq(0.5*coastDriftAccelMS2*e.coastS*e.coastS) - sq(0.5*coastDriftAccelMS2*prev*prev)
		velStep := sq(coastDriftAccelMS2*e.coastS) - sq(coastDriftAccelMS2*prev)
		e.Pos.AddCoastVariance(posStep, velStep)
	}
}

func sq(v float64) float64 { return v * v }

// OnGPS fuses a GPS fix unless a GPS outage is declared.
func (e *Estimator) OnGPS(fix sensors.GPSSample) {
	if e.gpsOut {
		e.Rejected++
		return
	}
	e.Pos.UpdateGPS(fix, 0.8, 0.1)
}

// OnBaro fuses a barometric altitude unless a barometer outage is declared.
func (e *Estimator) OnBaro(alt float64) {
	if e.baroOut {
		e.Rejected++
		return
	}
	e.Pos.UpdateBaro(alt, 0.15)
}

// OnMag fuses a magnetometer yaw unless a magnetometer outage is declared.
func (e *Estimator) OnMag(yaw float64, dt float64) {
	if e.magOut {
		e.Rejected++
		return
	}
	e.Att.CorrectYaw(yaw, dt)
}
