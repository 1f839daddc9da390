// Package control implements the drone's hierarchical inner-loop control
// (§2.1.3-C): high-performance cascaded PID controllers split by time scale —
// position/trajectory at 40 Hz, attitude at 200 Hz, and thrust (body rate)
// at 1 kHz (Table 2b) — plus the motor mixer. The cascade consumes state
// targets (position, velocity, attitude) from the outer loop exactly as
// Figure 6 draws it.
package control

import "dronedse/mathx"

// PID is a single proportional-integral-derivative controller with
// derivative low-pass filtering and integral clamping — the "filter
// computations" half of the inner-loop work (§2.1.3-D: keeping a history and
// accumulated versions of previously observed measurements, their
// derivative, and their integral).
type PID struct {
	Kp, Ki, Kd float64
	// IntegralLimit clamps the accumulated integral term (anti-windup).
	IntegralLimit float64
	// OutputLimit clamps the controller output symmetrically; zero means
	// unbounded.
	OutputLimit float64
	// DerivativeLPF is the derivative low-pass coefficient in (0, 1];
	// 1 disables filtering.
	DerivativeLPF float64

	integral  float64
	prevErr   float64
	prevDeriv float64
	primed    bool
}

// Update advances the controller with the current error and time step,
// returning the control output.
func (c *PID) Update(err, dt float64) float64 {
	if dt <= 0 {
		return c.output(err, 0)
	}
	c.integral += err * dt
	if c.IntegralLimit > 0 {
		c.integral = mathx.Clamp(c.integral, -c.IntegralLimit, c.IntegralLimit)
	}
	deriv := 0.0
	if c.primed {
		deriv = (err - c.prevErr) / dt
	}
	lpf := c.DerivativeLPF
	if lpf <= 0 || lpf > 1 {
		lpf = 1
	}
	c.prevDeriv += lpf * (deriv - c.prevDeriv)
	c.prevErr = err
	c.primed = true
	return c.output(err, c.prevDeriv)
}

func (c *PID) output(err, deriv float64) float64 {
	out := c.Kp*err + c.Ki*c.integral + c.Kd*deriv
	if c.OutputLimit > 0 {
		out = mathx.Clamp(out, -c.OutputLimit, c.OutputLimit)
	}
	return out
}

// Vec3PID bundles three axis PIDs sharing gains.
type Vec3PID struct{ X, Y, Z PID }

// NewVec3PID builds three identical axis controllers.
func NewVec3PID(p PID) *Vec3PID { return &Vec3PID{X: p, Y: p, Z: p} }

// Update runs all three axes.
func (v *Vec3PID) Update(err mathx.Vec3, dt float64) mathx.Vec3 {
	return mathx.V3(v.X.Update(err.X, dt), v.Y.Update(err.Y, dt), v.Z.Update(err.Z, dt))
}
