package control

import (
	"math"

	"dronedse/mathx"
	"dronedse/sim"
)

// Loop couples the plant and the cascade at the Table 2b update frequencies,
// implementing the time-scale separation of §2.1.3-C. Physics always steps
// at least at 1 kHz; each controller level fires at its own divisor. The
// update-rate ablation (§2.1.3-D: the inner loop is physics-limited at
// 50-500 Hz) builds loops at other Rates and measures the response.
type Loop struct {
	Quad *sim.Quad
	C    *Cascade

	physicsHz      float64
	pos, att, rate sim.Stride
	// rateLaw, when set, replaces C.UpdateRate as the rate level; the INDI
	// study (indi_test.go) flies the loop with its own rate law this way.
	rateLaw func(s sim.State, dt float64) [sim.NumMotors]float64
}

// NewLoop wires a cascade to a plant at the given rates.
func NewLoop(q *sim.Quad, rates Rates) *Loop {
	physHz := math.Max(1000, rates.RateHz)
	return &Loop{
		Quad: q, C: NewCascade(q), physicsHz: physHz,
		pos:  sim.NewStride(physHz, rates.PositionHz),
		att:  sim.NewStride(physHz, rates.AttitudeHz),
		rate: sim.NewStride(physHz, rates.RateHz),
	}
}

// Run advances the closed loop for the given duration toward a fixed target,
// invoking onStep (if non-nil) after every physics step.
func (l *Loop) Run(target Targets, seconds float64, onStep func(t float64, s sim.State)) {
	dt := 1 / l.physicsHz
	rateLaw := l.rateLaw
	if rateLaw == nil {
		rateLaw = l.C.UpdateRate
	}

	n := int(seconds * l.physicsHz)
	for i := 0; i < n; i++ {
		s := l.Quad.State()
		if l.pos.Due() {
			l.C.UpdatePosition(s, target, float64(l.pos.Every())*dt)
		}
		if l.att.Due() {
			l.C.UpdateAttitude(s, float64(l.att.Every())*dt)
		}
		if l.rate.Due() {
			l.Quad.CommandThrusts(rateLaw(s, float64(l.rate.Every())*dt))
		}
		l.pos.Advance()
		l.att.Advance()
		l.rate.Advance()
		l.Quad.Step(dt)
		if onStep != nil {
			onStep(l.Quad.Time(), l.Quad.State())
		}
	}
}

// StepResponse measures the 90%-settling response time (seconds) of a
// position step of the given size along +X, or a negative value when the
// loop never settles. It is the Table 2b / inner-loop-rate experiment
// kernel.
func StepResponse(quadCfg sim.Config, rates Rates, stepM, maxSeconds float64) float64 {
	q, err := sim.NewQuad(quadCfg)
	if err != nil {
		return -1
	}
	l := NewLoop(q, rates)
	// Start airborne at hover to isolate the translational response.
	hover := Targets{Position: mathx.V3(0, 0, 10)}
	q.Teleport(mathx.V3(0, 0, 10))
	l.Run(hover, 3, nil) // settle into hover
	start := q.State().Pos

	target := hover
	target.Position.X = start.X + stepM
	settled := -1.0
	t0 := q.Time()
	need := 0.0
	l.Run(target, maxSeconds, func(t float64, s sim.State) {
		if settled >= 0 {
			return
		}
		if math.Abs(s.Pos.X-target.Position.X) < 0.1*stepM &&
			math.Abs(s.Vel.X) < 0.25 {
			if need == 0 {
				need = t
			}
			// require it to stay settled for 0.3 s
			if t-need > 0.3 {
				settled = need - t0
			}
		} else {
			need = 0
		}
	})
	return settled
}
