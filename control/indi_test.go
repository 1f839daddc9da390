package control

import (
	"testing"

	"dronedse/mathx"
	"dronedse/sim"
)

// The §2.1.3-D INDI study: the paper cites incremental nonlinear dynamic
// inversion (Smeur et al.) for stabilising a drone "under powerful wind
// gusts" at a 500 Hz update rate. These tests fly Loop with the INDI rate
// law in place of the PID rate loop, reusing the cascade's position and
// attitude levels, and reproduce the claim (EXPERIMENTS.md).

// indiRateController is an INDI rate controller. Instead of integrating a
// disturbance model the way PID's I-term does, INDI measures the achieved
// angular acceleration and commands an increment of control moment on top
// of the current one:
//
//	tau_cmd = tau_now + I * G * (omega_dot_des - omega_dot_measured)
//
// Disturbance torques (gusts, weight imbalance) appear directly in the
// measured angular acceleration and are cancelled within one actuator time
// constant, without integral windup.
type indiRateController struct {
	p        float64    // rate error to desired angular acceleration (1/s)
	inertia  mathx.Vec3 // the vehicle's diagonal inertia
	filterHz float64    // low-pass on the measured acceleration and moment

	prevOmega mathx.Vec3
	alphaF    mathx.Vec3 // filtered measured angular acceleration
	tauNow    mathx.Vec3 // filtered current control moment estimate
	primed    bool
}

func newINDIRateController(q *sim.Quad) *indiRateController {
	cfg := q.Config()
	wbM := cfg.WheelbaseMM / 1000
	return &indiRateController{
		p: 22,
		inertia: mathx.V3(
			0.05*cfg.MassKg*wbM*wbM,
			0.05*cfg.MassKg*wbM*wbM,
			0.09*cfg.MassKg*wbM*wbM),
		filterHz: 40,
	}
}

// update consumes the measured body rate, the measured currently-applied
// torque (reconstructed from rotor feedback, as real INDI implementations
// read motor RPM) and the rate set point, returning the commanded torque.
func (c *indiRateController) update(omega, tauApplied, rateTarget mathx.Vec3, dt float64) mathx.Vec3 {
	if dt <= 0 {
		return c.tauNow
	}
	// The actuator measurement is filtered with the same filter as the
	// angular acceleration so the two stay synchronous.
	var alphaRaw mathx.Vec3
	if c.primed {
		alphaRaw = omega.Sub(c.prevOmega).Scale(1 / dt)
	}
	c.prevOmega = omega
	c.primed = true
	k := min(dt*c.filterHz, 1)
	c.alphaF = c.alphaF.Add(alphaRaw.Sub(c.alphaF).Scale(k))
	c.tauNow = c.tauNow.Add(tauApplied.Sub(c.tauNow).Scale(k))

	alphaDes := rateTarget.Sub(omega).Scale(c.p)
	inc := alphaDes.Sub(c.alphaF).Hadamard(c.inertia)
	return c.tauNow.Add(inc).Clamp(1.0)
}

// appliedTorque reconstructs the body torque the rotors currently produce
// (the inverse of Mix): the actuator measurement INDI feeds back.
func appliedTorque(c *Cascade, th [sim.NumMotors]float64) mathx.Vec3 {
	l := c.armM
	ct := c.torquePerN
	return mathx.V3(
		l*(th[sim.FrontLeft]-th[sim.FrontRight]+th[sim.BackLeft]-th[sim.BackRight]),
		-l*(th[sim.FrontLeft]+th[sim.FrontRight]-th[sim.BackLeft]-th[sim.BackRight]),
		ct*(th[sim.FrontLeft]-th[sim.FrontRight]-th[sim.BackLeft]+th[sim.BackRight]),
	)
}

// newINDILoop wires a Loop whose rate level is the INDI law, fed the
// plant's measured per-rotor thrusts.
func newINDILoop(q *sim.Quad, rates Rates) *Loop {
	l := NewLoop(q, rates)
	indi := newINDIRateController(q)
	l.rateLaw = func(s sim.State, dt float64) [sim.NumMotors]float64 {
		tau := indi.update(s.Omega, appliedTorque(l.C, q.MotorThrusts()), l.C.rateTarget, dt)
		return l.C.Mix(l.C.thrustTarget, tau)
	}
	return l
}

func runHoverWithWind(t *testing.T, indi bool, windMS, gustMS float64, seed int64) (worst float64) {
	t.Helper()
	q, err := sim.NewQuad(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q.SetEnvironment(sim.WindyEnvironment(seed, windMS, gustMS))
	q.Teleport(mathx.V3(0, 0, 10))
	target := Targets{Position: mathx.V3(0, 0, 10)}
	record := func(_ float64, s sim.State) {
		if d := s.Pos.Sub(target.Position).Norm(); d > worst {
			worst = d
		}
	}
	rates := Rates{PositionHz: 40, AttitudeHz: 200, RateHz: 500} // INDI's cited rate
	if indi {
		newINDILoop(q, rates).Run(target, 25, record)
	} else {
		NewLoop(q, rates).Run(target, 25, record)
	}
	return worst
}

// TestINDIHoldsHover: the INDI rate loop must fly at all — hover hold in
// calm air within tight bounds.
func TestINDIHoldsHover(t *testing.T) {
	if worst := runHoverWithWind(t, true, 0, 0, 1); worst > 0.3 {
		t.Errorf("INDI calm-air hover error %.2f m", worst)
	}
}

// TestINDIGustRejection reproduces the §2.1.3-D citation: INDI stabilizes
// under powerful gusts at 500 Hz, holding position at least as well as the
// PID cascade in strong wind.
func TestINDIGustRejection(t *testing.T) {
	const wind, gust = 6, 4 // strong, gusty
	pid := runHoverWithWind(t, false, wind, gust, 7)
	indi := runHoverWithWind(t, true, wind, gust, 7)
	if indi > 2.5 {
		t.Errorf("INDI worst error %.2f m under %v m/s wind", indi, wind)
	}
	// INDI must be competitive with the tuned PID cascade (within 40%).
	if indi > pid*1.4 {
		t.Errorf("INDI (%.2f m) much worse than PID (%.2f m) in gusts", indi, pid)
	}
	t.Logf("gust rejection: PID worst %.2f m, INDI worst %.2f m", pid, indi)
}

// TestINDIStepResponse: the INDI variant also settles translation steps.
func TestINDIStepResponse(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	l := newINDILoop(q, Rates{PositionHz: 40, AttitudeHz: 200, RateHz: 500})
	q.Teleport(mathx.V3(0, 0, 10))
	l.Run(Targets{Position: mathx.V3(0, 0, 10)}, 3, nil)
	l.Run(Targets{Position: mathx.V3(5, 0, 10)}, 12, nil)
	end := q.State().Pos
	if end.Sub(mathx.V3(5, 0, 10)).Norm() > 0.4 {
		t.Errorf("INDI step ended at %v", end)
	}
}

func TestINDIControllerUnits(t *testing.T) {
	q, _ := sim.NewQuad(sim.DefaultConfig())
	c := newINDIRateController(q)
	// Zero dt: no update, no panic.
	tau0 := c.update(mathx.Vec3{}, mathx.Vec3{}, mathx.V3(1, 0, 0), 0)
	if tau0 != (mathx.Vec3{}) {
		t.Errorf("zero-dt output = %v", tau0)
	}
	// A rate error must command torque of the right sign.
	var tau mathx.Vec3
	for i := 0; i < 200; i++ {
		tau = c.update(mathx.Vec3{}, mathx.Vec3{}, mathx.V3(1, 0, 0), 1e-3)
	}
	if tau.X <= 0 {
		t.Errorf("positive roll-rate demand produced torque %v", tau)
	}
}
