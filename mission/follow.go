package mission

import (
	"errors"
	"math"
	"math/rand"

	"dronedse/autopilot"
	"dronedse/mathx"
)

// FollowTarget parametrizes the deterministic moving ground target the
// follow workload tracks: a seeded random-heading walk at constant speed,
// precomputed into piecewise-linear segments at Build — the same
// seed-derived-plan discipline faultx uses, so the target's route is a pure
// function of (seed, parameters) and bit-identical across lanes and pools.
type FollowTarget struct {
	// Seed drives the route (0 = the flight's master seed).
	Seed int64 `json:"seed,omitempty"`
	// SpeedMS is the target's ground speed (default 2 m/s — a brisk walk).
	SpeedMS float64 `json:"speed_ms,omitempty"`
	// TurnEveryS is the mean interval between heading changes (default 8).
	TurnEveryS float64 `json:"turn_every_s,omitempty"`
	// Start is the target's ground position at t=0 (Z is forced to 0).
	Start mathx.Vec3 `json:"start,omitempty"`
}

// Follow is the search-and-rescue track workload (MAVBench's
// "search-and-rescue" terminal phase): after takeoff the vehicle enters the
// autopilot's follow mode against the seeded moving target, films it at the
// standoff for DurationS, then breaks off and lands. The Outcome reports the
// standoff tracking error sampled at 10 Hz while following.
type Follow struct {
	// DurationS is the follow time after takeoff (default 60).
	DurationS float64 `json:"duration_s,omitempty"`
	// StandoffM is the horizontal trail distance (default: autopilot's 4).
	StandoffM float64 `json:"standoff_m,omitempty"`
	// AltitudeM is the filming altitude above the target (default:
	// autopilot's 4).
	AltitudeM float64 `json:"altitude_m,omitempty"`
	// Target shapes the seeded target model.
	Target FollowTarget `json:"target,omitempty"`
}

// Kind implements Workload.
func (Follow) Kind() string { return "follow" }

// Validate implements Workload.
func (f Follow) Validate() error {
	if !finite(f.DurationS) || f.DurationS < 0 || f.DurationS > maxFlightS {
		return errors.New("mission: follow duration must be within [0, 3600] s")
	}
	if !finite(f.StandoffM) || f.StandoffM < 0 || f.StandoffM > 50 {
		return errors.New("mission: follow standoff must be within [0, 50] m")
	}
	if !finite(f.AltitudeM) || f.AltitudeM < 0 || f.AltitudeM > 50 {
		return errors.New("mission: follow altitude must be within [0, 50] m")
	}
	t := f.Target
	if !finite(t.SpeedMS) || t.SpeedMS < 0 || t.SpeedMS > 20 {
		return errors.New("mission: follow target speed must be within [0, 20] m/s")
	}
	if !finite(t.TurnEveryS) || t.TurnEveryS < 0 || t.TurnEveryS > 600 {
		return errors.New("mission: follow target turn interval must be within [0, 600] s")
	}
	if !finiteVec(t.Start) {
		return errors.New("mission: follow target start not finite")
	}
	return nil
}

func (f Follow) durationS() float64 {
	if f.DurationS > 0 {
		return f.DurationS
	}
	return 60
}

// New implements Workload.
func (f Follow) New(ctx Context) (Driver, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	seed := f.Target.Seed
	if seed == 0 {
		seed = ctx.Seed
	}
	durS := f.durationS()
	// The model must cover the takeoff prologue plus the follow window; the
	// follow controller also finite-differences the target half a second
	// into the past, which TargetModel handles by clamping t<=0 to the start.
	model := NewTargetModel(f.Target, seed, 30+durS+30)
	return &followDriver{
		model:    model,
		durS:     durS,
		standoff: f.standoffM(),
		cfg: autopilot.FollowConfig{
			Target:    model.At,
			StandoffM: f.StandoffM,
			AltitudeM: f.AltitudeM,
		},
	}, nil
}

func (f Follow) standoffM() float64 {
	if f.StandoffM > 0 {
		return f.StandoffM
	}
	return 4 // the autopilot's FollowConfig default
}

// followDriver follows for DurationS, then lands; a failed takeoff lands
// straight away. The follow is complete once the window lapsed still in
// follow mode and the vehicle disarmed.
type followDriver struct {
	model    *TargetModel
	durS     float64
	standoff float64
	cfg      autopilot.FollowConfig

	steps          int
	sumErr, maxErr float64
	samples        int
}

func (d *followDriver) Lifecycle() Lifecycle {
	return Lifecycle{ActiveS: d.durS, Terminal: autopilot.Disarmed, TakeoffFail: Land, Lapse: Land}
}

func (*followDriver) Start(Host) error { return nil }

func (d *followDriver) Begin(h Host) error { return h.AP().Follow(d.cfg) }

// Step is the 10 Hz standoff-error tap while actually following (a
// failsafe that takes the mode over stops the clock on tracking quality).
func (d *followDriver) Step(h Host) {
	ap := h.AP()
	if d.steps%100 == 0 && ap.Mode() == autopilot.FollowMode {
		pos := ap.Quad().State().Pos
		tgt := d.model.At(ap.Time())
		e := math.Abs(math.Hypot(pos.X-tgt.X, pos.Y-tgt.Y) - d.standoff)
		d.sumErr += e
		d.samples++
		if e > d.maxErr {
			d.maxErr = e
		}
	}
	d.steps++
}

func (d *followDriver) Outcome(_ Host, e Ending) Outcome {
	out := Outcome{
		Kind:         "follow",
		Completed:    e.Lapsed && e.LapseMode == autopilot.FollowMode,
		MaxTrackErrM: d.maxErr,
	}
	if d.samples > 0 {
		out.MeanTrackErrM = d.sumErr / float64(d.samples)
	}
	return out
}

// TargetModel is the precomputed route: piecewise-linear segments whose
// headings random-walk at seeded turn intervals. At is a pure function of t
// — no internal cursor — so any query pattern (the follow controller samples
// t and t−0.5 interleaved) returns identical positions, allocation-free.
type TargetModel struct {
	segs []targetSeg
}

type targetSeg struct {
	t0  float64
	pos mathx.Vec3
	vel mathx.Vec3
}

// NewTargetModel precomputes a route covering [0, horizonS]; beyond the
// horizon the target halts (the final segment has zero velocity).
func NewTargetModel(cfg FollowTarget, seed int64, horizonS float64) *TargetModel {
	speed := cfg.SpeedMS
	if speed == 0 {
		speed = 2
	}
	turn := cfg.TurnEveryS
	if turn == 0 {
		turn = 8
	}
	start := cfg.Start
	start.Z = 0
	rng := rand.New(mathx.NewSource(seed))
	heading := rng.Float64() * 2 * math.Pi
	m := &TargetModel{segs: make([]targetSeg, 0, int(horizonS/turn)+3)}
	t, pos := 0.0, start
	for t < horizonS {
		vel := mathx.V3(speed*math.Cos(heading), speed*math.Sin(heading), 0)
		m.segs = append(m.segs, targetSeg{t0: t, pos: pos, vel: vel})
		durS := turn * (0.5 + rng.Float64())
		pos = pos.Add(vel.Scale(durS))
		t += durS
		heading += (rng.Float64()*2 - 1) * (math.Pi / 3)
	}
	m.segs = append(m.segs, targetSeg{t0: t, pos: pos}) // halt beyond horizon
	return m
}

// At returns the target's position at time t (clamped to the start before
// t=0 and to the halt point beyond the horizon).
func (m *TargetModel) At(t float64) mathx.Vec3 {
	if t <= m.segs[0].t0 {
		return m.segs[0].pos
	}
	for i := len(m.segs) - 1; i >= 0; i-- {
		if t >= m.segs[i].t0 {
			s := m.segs[i]
			return s.pos.Add(s.vel.Scale(t - s.t0))
		}
	}
	return m.segs[0].pos
}
