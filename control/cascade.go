package control

import (
	"math"

	"dronedse/mathx"
	"dronedse/sim"
	"dronedse/units"
)

// Targets is the outer-loop → inner-loop interface of Figure 6: the
// high-level algorithms "only provide state targets, grouped into position,
// velocity, and attitude".
type Targets struct {
	Position mathx.Vec3
	// Velocity is a feed-forward velocity target.
	Velocity mathx.Vec3
	// Yaw is the desired heading (rad).
	Yaw float64
}

// Rates groups the cascade's update frequencies (Table 2b: thrust/rate
// 1 kHz, attitude 200 Hz, position 40 Hz).
type Rates struct {
	PositionHz float64
	AttitudeHz float64
	RateHz     float64
}

// DefaultRates are the Table 2b frequencies.
func DefaultRates() Rates { return Rates{PositionHz: 40, AttitudeHz: 200, RateHz: 1000} }

// Cascade is the hierarchical inner-loop controller: position → velocity →
// attitude → body rate → motor mix, with time-scale separation.
type Cascade struct {
	MassKg  float64
	Inertia mathx.Vec3
	// MaxTiltRad is the maximum stable angle of attack (Table 3: depends
	// on the thrust-to-weight ratio; ~35° for TWR 2).
	MaxTiltRad float64
	MaxVelXY   float64
	MaxVelZ    float64
	MaxThrustN float64 // per motor
	armM       float64
	torquePerN float64 // yaw torque per newton of thrust (KQ/KT)

	posP Vec3PID
	velP Vec3PID
	attP float64 // attitude P gain (rad error -> rad/s)
	rate Vec3PID

	// cached set points between the differently-clocked stages
	attTarget    mathx.Quat
	thrustTarget float64 // collective, N
	rateTarget   mathx.Vec3

	// Stats is the controller's work ledger (see CtrlStats); it only
	// counts, so reading it never perturbs the control state.
	Stats CtrlStats
}

// NewCascade builds a tuned cascade for a plant. Gains scale with mass and
// inertia so the same tuning flies the 100 mm and 800 mm classes.
func NewCascade(q *sim.Quad) *Cascade {
	c := new(Cascade)
	c.Init(q)
	return c
}

// Init re-initialises c in place as NewCascade(q) would build it: gains
// tuned for q, every loop's state cleared and the work ledger zeroed.
func (c *Cascade) Init(q *sim.Quad) {
	cfg := q.Config()
	wbM := cfg.WheelbaseMM / 1000
	const maxVelXY = 6
	*c = Cascade{
		MassKg: cfg.MassKg,
		Inertia: mathx.V3(
			0.05*cfg.MassKg*wbM*wbM,
			0.05*cfg.MassKg*wbM*wbM,
			0.09*cfg.MassKg*wbM*wbM),
		MaxTiltRad:   units.DegToRad(35),
		MaxVelXY:     maxVelXY,
		MaxVelZ:      3,
		MaxThrustN:   q.MaxThrustPerMotorN(),
		armM:         wbM / 2 * math.Sqrt2 / 2,
		torquePerN:   0.05 * units.InchToMeter(cfg.PropInches) * 10,
		posP:         *NewVec3PID(PID{Kp: 1.1, OutputLimit: maxVelXY}),
		velP:         *NewVec3PID(PID{Kp: 3.0, Ki: 0.4, Kd: 0.55, IntegralLimit: 2, OutputLimit: 8, DerivativeLPF: 0.4}),
		attP:         8,
		rate:         *NewVec3PID(PID{Kp: 28, Ki: 12, Kd: 0.4, IntegralLimit: 4, DerivativeLPF: 0.3}),
		attTarget:    mathx.QuatIdentity(),
		thrustTarget: cfg.MassKg * units.Gravity,
	}
}

// UpdatePosition runs the high-level position/trajectory controller
// (Table 2b: 40 Hz, ~1 s response). It converts position error into a
// desired acceleration, then into an attitude + collective-thrust set point.
func (c *Cascade) UpdatePosition(s sim.State, tgt Targets, dt float64) {
	c.Stats.PositionUpdates++
	c.Stats.PositionOps += ctrlPositionOps
	velDes := c.posP.Update(tgt.Position.Sub(s.Pos), dt).Add(tgt.Velocity)
	velDes = mathx.V3(
		mathx.Clamp(velDes.X, -c.MaxVelXY, c.MaxVelXY),
		mathx.Clamp(velDes.Y, -c.MaxVelXY, c.MaxVelXY),
		mathx.Clamp(velDes.Z, -c.MaxVelZ, c.MaxVelZ))
	accDes := c.velP.Update(velDes.Sub(s.Vel), dt)

	// Desired thrust vector (world): cancel gravity plus the commanded
	// acceleration.
	thrustVec := accDes.Add(mathx.V3(0, 0, units.Gravity)).Scale(c.MassKg)
	// Tilt limit: never command beyond the stable angle of attack.
	z := thrustVec.Normalized()
	tilt := math.Acos(mathx.Clamp(z.Z, -1, 1))
	if tilt > c.MaxTiltRad {
		// Reduce the horizontal component until the tilt is legal.
		horiz := math.Hypot(thrustVec.X, thrustVec.Y)
		maxHoriz := math.Abs(thrustVec.Z) * math.Tan(c.MaxTiltRad)
		if horiz > 1e-9 {
			scale := maxHoriz / horiz
			thrustVec.X *= scale
			thrustVec.Y *= scale
		}
	}
	c.thrustTarget = mathx.Clamp(thrustVec.Norm(), 0, 4*c.MaxThrustN)
	c.attTarget = attitudeFromThrustYaw(thrustVec, tgt.Yaw)
}

// attitudeFromThrustYaw builds the attitude whose body +Z axis aligns with
// the desired thrust direction while pointing the body +X toward yaw.
func attitudeFromThrustYaw(thrustVec mathx.Vec3, yaw float64) mathx.Quat {
	zb := thrustVec.Normalized()
	if zb.Norm() < 1e-9 {
		zb = mathx.V3(0, 0, 1)
	}
	xc := mathx.V3(math.Cos(yaw), math.Sin(yaw), 0)
	yb := zb.Cross(xc).Normalized()
	if yb.Norm() < 1e-9 {
		yb = mathx.V3(0, 1, 0)
	}
	xb := yb.Cross(zb)
	m := mathx.Mat3{
		{xb.X, yb.X, zb.X},
		{xb.Y, yb.Y, zb.Y},
		{xb.Z, yb.Z, zb.Z},
	}
	return quatFromMat(m)
}

// quatFromMat converts a rotation matrix to a quaternion (Shepperd's method).
func quatFromMat(m mathx.Mat3) mathx.Quat {
	tr := m.Trace()
	var q mathx.Quat
	switch {
	case tr > 0:
		s := math.Sqrt(tr+1) * 2
		q = mathx.Quat{W: s / 4, X: (m[2][1] - m[1][2]) / s, Y: (m[0][2] - m[2][0]) / s, Z: (m[1][0] - m[0][1]) / s}
	case m[0][0] > m[1][1] && m[0][0] > m[2][2]:
		s := math.Sqrt(1+m[0][0]-m[1][1]-m[2][2]) * 2
		q = mathx.Quat{W: (m[2][1] - m[1][2]) / s, X: s / 4, Y: (m[0][1] + m[1][0]) / s, Z: (m[0][2] + m[2][0]) / s}
	case m[1][1] > m[2][2]:
		s := math.Sqrt(1+m[1][1]-m[0][0]-m[2][2]) * 2
		q = mathx.Quat{W: (m[0][2] - m[2][0]) / s, X: (m[0][1] + m[1][0]) / s, Y: s / 4, Z: (m[1][2] + m[2][1]) / s}
	default:
		s := math.Sqrt(1+m[2][2]-m[0][0]-m[1][1]) * 2
		q = mathx.Quat{W: (m[1][0] - m[0][1]) / s, X: (m[0][2] + m[2][0]) / s, Y: (m[1][2] + m[2][1]) / s, Z: s / 4}
	}
	return q.Normalized()
}

// UpdateAttitude runs the mid-level attitude controller (Table 2b: 200 Hz,
// ~100 ms response): quaternion error to body-rate set points.
func (c *Cascade) UpdateAttitude(s sim.State, dt float64) {
	c.Stats.AttitudeUpdates++
	c.Stats.AttitudeOps += ctrlAttitudeOps
	// Error quaternion in the body frame.
	qe := s.Att.Conj().Mul(c.attTarget).Normalized()
	if qe.W < 0 { // take the short way around
		qe = mathx.Quat{W: -qe.W, X: -qe.X, Y: -qe.Y, Z: -qe.Z}
	}
	// Small-angle axis error: 2 * vector part.
	axisErr := mathx.V3(qe.X, qe.Y, qe.Z).Scale(2)
	c.rateTarget = axisErr.Scale(c.attP).Clamp(8)
}

// UpdateRate runs the low-level thrust/rate controller (Table 2b: 1 kHz,
// ~50 ms response) and returns the per-motor thrust commands.
func (c *Cascade) UpdateRate(s sim.State, dt float64) [sim.NumMotors]float64 {
	c.Stats.RateUpdates++
	c.Stats.RateOps += ctrlRateOps
	angAcc := c.rate.Update(c.rateTarget.Sub(s.Omega), dt)
	tau := angAcc.Hadamard(c.Inertia)
	return c.Mix(c.thrustTarget, tau)
}

// Mix allocates collective thrust and body torques onto the four motors
// (X configuration), saturating at the rotor limits while preserving the
// collective as much as possible.
func (c *Cascade) Mix(totalN float64, tau mathx.Vec3) [sim.NumMotors]float64 {
	l := c.armM
	ct := c.torquePerN
	var out [sim.NumMotors]float64
	out[sim.FrontLeft] = totalN/4 + tau.X/(4*l) - tau.Y/(4*l) + tau.Z/(4*ct)
	out[sim.FrontRight] = totalN/4 - tau.X/(4*l) - tau.Y/(4*l) - tau.Z/(4*ct)
	out[sim.BackLeft] = totalN/4 + tau.X/(4*l) + tau.Y/(4*l) - tau.Z/(4*ct)
	out[sim.BackRight] = totalN/4 - tau.X/(4*l) + tau.Y/(4*l) + tau.Z/(4*ct)
	for i := range out {
		out[i] = mathx.Clamp(out[i], 0, c.MaxThrustN)
	}
	return out
}

// SetAttitudeTarget injects an attitude + collective set point directly,
// bypassing the position level — the Figure 6 path where "the application
// requires attitude control by the outer loop", and the hook the Table 2b
// attitude step-response measurement uses.
func (c *Cascade) SetAttitudeTarget(q mathx.Quat, thrustN float64) {
	c.attTarget = q.Normalized()
	c.thrustTarget = mathx.Clamp(thrustN, 0, 4*c.MaxThrustN)
}
