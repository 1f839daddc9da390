package bench

import (
	"fmt"
	"math"

	"dronedse/autopilot"
	"dronedse/control"
	"dronedse/mathx"
	"dronedse/platform"
	"dronedse/scenario"
	"dronedse/sensors"
	"dronedse/sim"
	"dronedse/trace"
)

// Table2aRender renders the sensor data-frequency table.
func Table2aRender() Table {
	t := Table{
		Title:   "Table 2a: on-board sensor data frequencies",
		Columns: []string{"sensor", "frequency (Hz)"},
	}
	for _, r := range sensors.Table2a() {
		span := f(r.LoHz)
		if r.HiHz != r.LoHz {
			span = fmt.Sprintf("%g-%g", r.LoHz, r.HiHz)
		}
		t.Rows = append(t.Rows, []string{r.Sensor, span})
	}
	return t
}

// Table2b measures the three controller levels' response times on the
// 6-DOF plant at the Table 2b update frequencies.
type Table2b struct {
	// ThrustResponseS is the low-level actuation response (3x rotor time
	// constant: thrust reaches ~95% of a step).
	ThrustResponseS float64
	// AttitudeResponseS is the mid-level attitude step settle time.
	AttitudeResponseS float64
	// PositionResponseS is the high-level position step settle time.
	PositionResponseS float64
}

// RunTable2b measures the cascade's time-scale separation.
func RunTable2b() Table2b {
	cfg := sim.DefaultConfig()
	var out Table2b

	// Thrust level: rotor spin-up physics.
	q, _ := sim.NewQuad(cfg)
	out.ThrustResponseS = 3 * q.RotorTimeConstant()

	// Attitude level: a 15-degree roll step at hover; settle within 10%.
	out.AttitudeResponseS = attitudeStepResponse(cfg)

	// Position level: a 5 m translation step.
	out.PositionResponseS = control.StepResponse(cfg, control.DefaultRates(), 5, 20)
	return out
}

// attitudeStepResponse measures the mid-level loop settle time directly.
func attitudeStepResponse(cfg sim.Config) float64 {
	q, err := sim.NewQuad(cfg)
	if err != nil {
		return -1
	}
	q.Teleport(mathx.V3(0, 0, 20))
	c := control.NewCascade(q)
	target := mathx.QuatFromEuler(0.26, 0, 0) // 15 deg roll
	dt := 1e-3
	settled := -1.0
	hold := 0.0
	for i := 0; i < 5000; i++ {
		s := q.State()
		// Feed the attitude target directly (the mid-level loop's own
		// step), keeping collective at hover.
		if i%5 == 0 {
			c.SetAttitudeTarget(target, cfg.MassKg*9.80665/math.Cos(0.26))
		}
		if i%5 == 0 {
			c.UpdateAttitude(s, 5*dt)
		}
		q.CommandThrusts(c.UpdateRate(s, dt))
		q.Step(dt)
		t := q.Time()
		if q.State().Att.AngleTo(target) < 0.026 { // within 10%
			if hold == 0 {
				hold = t
			}
			if t-hold > 0.1 {
				settled = hold
				break
			}
		} else {
			hold = 0
		}
	}
	return settled
}

// Table renders the measurement.
func (tb Table2b) Table() Table {
	return Table{
		Title:   "Table 2b: controller update frequencies and measured response times",
		Columns: []string{"controller", "update freq", "measured response", "paper response"},
		Rows: [][]string{
			{"Thrust (low)", "1 kHz", fmt.Sprintf("%.0f ms", tb.ThrustResponseS*1000), "50 ms"},
			{"Attitude (mid)", "200 Hz", fmt.Sprintf("%.0f ms", tb.AttitudeResponseS*1000), "100 ms"},
			{"Position (high)", "40 Hz", fmt.Sprintf("%.1f s", tb.PositionResponseS), "1 s"},
		},
		Notes: []string{"time-scale separation: each level settles ~an order of magnitude slower than the one below"},
	}
}

// InnerLoopAblation is the §2.1.3-D experiment: position step response vs
// inner-loop rate, showing the 50-500 Hz physics limit.
type InnerLoopAblation struct {
	RateHz    []float64
	ResponseS []float64
}

// RunInnerLoopAblation sweeps the inner-loop rate.
func RunInnerLoopAblation() InnerLoopAblation {
	cfg := sim.DefaultConfig()
	var out InnerLoopAblation
	for _, hz := range []float64{6, 12, 25, 50, 100, 200, 500, 1000, 2000} {
		r := control.Rates{PositionHz: math.Min(40, hz), AttitudeHz: math.Min(200, hz), RateHz: hz}
		out.RateHz = append(out.RateHz, hz)
		out.ResponseS = append(out.ResponseS, control.StepResponse(cfg, r, 5, 25))
	}
	return out
}

// Table renders the ablation.
func (a InnerLoopAblation) Table() Table {
	t := Table{
		Title:   "Inner-loop rate ablation (§2.1.3-D): response time vs update frequency",
		Columns: []string{"rate (Hz)", "5 m step response (s)"},
		Notes:   []string{"response saturates by ~50-200 Hz: the inner loop is limited by rotor lag and inertia, not compute"},
	}
	for i := range a.RateHz {
		resp := "did not settle"
		if a.ResponseS[i] >= 0 {
			resp = f2(a.ResponseS[i])
		}
		t.Rows = append(t.Rows, []string{f(a.RateHz[i]), resp})
	}
	return t
}

// Figure16 regenerates both power traces: the RPi under its workload phases
// (a, USB meter at 2 Hz) and the whole drone flying a mission (b,
// oscilloscope at 50 Hz).
type Figure16 struct {
	RPiTrace   *trace.Recorder
	RPiPhases  []trace.Phase
	DroneTrace *trace.Recorder
	DroneAvgW  float64
	DronePeakW float64
	// FlightOK reports the mission completed (took off, flew, landed).
	FlightOK bool
}

// RunFigure16 runs both instruments.
func RunFigure16(seed int64) (Figure16, error) {
	var out Figure16

	// (a) RPi phases: walk the §5.1 sequence on the phase power model,
	// with SLAM-active bursts reaching the ~5 W peak.
	rpi := trace.NewUSBMeter(seed)
	phases := []struct {
		phase platform.RPiPhase
		dur   float64
	}{
		{platform.Disconnected, 20},
		{platform.AutopilotRunning, 60},
		{platform.AutopilotSLAMIdle, 60},
		{platform.AutopilotSLAMFlying, 120},
		{platform.PiShutdown, 40},
	}
	t := 0.0
	var spans []trace.Phase
	for _, ph := range phases {
		start := t
		for ; t < start+ph.dur; t += 0.1 {
			p := platform.RPiPhasePowerW(ph.phase)
			if ph.phase == platform.AutopilotSLAMFlying {
				// Processing bursts: oscillate toward the 5 W peak.
				p += (platform.RPiPhasePeakW(ph.phase) - p) * 0.5 * (1 + math.Sin(t*2.1))
			}
			rpi.Observe(t, p)
		}
		spans = append(spans, trace.Phase{Name: ph.phase.String(), FromS: start, ToS: t})
	}
	out.RPiTrace = rpi
	out.RPiPhases = spans

	// (b) Whole drone: fly the reference box mission on the full stack —
	// SLAM-active compute phase, oscilloscope on the battery — as a batch
	// of one on the scenario batch engine (bit-identical to scenario.Run by
	// the lane-determinism contract).
	results, errs := scenario.RunBatch([]scenario.Spec{{
		Seed:    seed,
		Compute: scenario.Compute{SLAM: true}, // RPi w/ SLAM + Navio2
	}})
	if errs[0] != nil {
		return out, errs[0]
	}
	res := results[0]
	out.FlightOK = res.FinalMode == autopilot.Disarmed
	out.DroneTrace = res.Trace
	out.DroneAvgW = res.Trace.MeanPower(2, res.FlightTimeS)
	out.DronePeakW = res.Trace.PeakPower(2, res.FlightTimeS)
	return out, nil
}

// Table renders the phase means and the whole-drone figures.
func (fg Figure16) Table() Table {
	t := Table{
		Title:   "Figure 16: power traces — (a) RPi per phase, (b) whole drone in flight",
		Columns: []string{"signal", "measured avg (W)", "paper (W)"},
	}
	means := trace.PhaseMeans(fg.RPiTrace, fg.RPiPhases)
	paper := map[string]string{
		"autopilot":              "3.39",
		"autopilot+SLAM(idle)":   "4.05",
		"autopilot+SLAM(flying)": "4.56 (peaks ~5)",
	}
	for _, ph := range fg.RPiPhases {
		want, ok := paper[ph.Name]
		if !ok {
			want = "-"
		}
		t.Rows = append(t.Rows, []string{"RPi " + ph.Name, f2(means[ph.Name]), want})
	}
	t.Rows = append(t.Rows, []string{"whole drone avg", f2(fg.DroneAvgW), "130"})
	t.Rows = append(t.Rows, []string{"whole drone peak", f2(fg.DronePeakW), "~250 at 58% load"})
	if !fg.FlightOK {
		t.Notes = append(t.Notes, "WARNING: mission did not complete")
	}
	return t
}
