// Package scenario is the unified flight-experiment engine: one declarative
// Spec describing the paper's experiment shape — a vehicle, an environment,
// a battery, a compute platform, optional SLAM offload and fault plans, a
// mission — and one audited Build that performs all the cross-package
// wiring (quad ↔ sensors ↔ estimator ↔ autopilot ↔ battery ↔ injector)
// that was previously hand-rolled, divergently, by cmd/flysim, faultx.Run
// and bench.RunFigure16.
//
// Determinism contract: a Spec is a pure value plus a seed. Build derives
// every stochastic stream (sensor noise, turbulence, offload jitter) from
// Spec.Seed, and Run drives the stack through one fixed lifecycle — arm,
// takeoff watch, active phase, landing watch, done — so the same Spec always
// reproduces the same flight bit for bit — the property the campaign
// pool-invariance and golden-regression tests pin.
//
// What flies is a mission.Workload: its per-flight Driver declares how the
// lifecycle runs for its kind (budget, end rule, branches, terminal state;
// see mission.Lifecycle) and the hooks it runs at the lifecycle's fixed
// points. Spec.Workload is the only way to say what to fly; a nil Workload
// flies mission.Box{}.
//
// Observer ordering: Build registers step observers on the autopilot's bus
// in a fixed order — (1) the flight log, (2) the scenario probe (fault
// application at 100 Hz, offload session and trajectory tap at 10 Hz,
// telemetry at the configured cadence, energy integration every step),
// (3) user observers in Spec order. Registration order is execution order
// (see autopilot.Observe), so a given Spec always replays observer side
// effects identically. An instrument such as the Figure 16b oscilloscope
// (trace.NewOscilloscope) is a user observer: the flights that read one
// attach it.
package scenario

import (
	"errors"
	"fmt"

	"dronedse/autopilot"
	"dronedse/mathx"
	"dronedse/mission"
	"dronedse/offload"
	"dronedse/parallelx"
	"dronedse/platform"
	"dronedse/power"
	"dronedse/sensors"
	"dronedse/sim"
	"dronedse/slam"
)

// Wind selects the environment. The zero value is calm air (deterministic
// turbulence source seeded from the Spec, but zero turbulence amplitude).
type Wind struct {
	// MeanMS is the steady wind speed along +X; zero selects calm air.
	MeanMS float64
	// GustMS is the gust amplitude layered on the mean (flysim's -wind flag
	// uses MeanMS/2). Ignored when MeanMS is zero.
	GustMS float64
}

// Battery selects the LiPo pack. The zero value is the paper's 450 mm
// reference pack: 3S, 3000 mAh, 30 C.
type Battery struct {
	Cells       int
	CapacityMah float64
	CRating     float64
}

func (b Battery) withDefaults() Battery {
	if b.Cells == 0 {
		b.Cells = 3
	}
	if b.CapacityMah == 0 {
		b.CapacityMah = 3000
	}
	if b.CRating == 0 {
		b.CRating = 30
	}
	return b
}

// Compute selects the companion-computer power envelope. The zero value is
// the paper's RPi + Navio2 stack running the autopilot alone
// (platform.FlightComputeW(false)); SLAM selects the SLAM-active phase.
type Compute struct {
	// BaseW, when positive, overrides the platform-derived draw entirely.
	BaseW float64
	// SLAM selects the SLAM-active RPi phase (§5.1's 4.56 W average).
	SLAM bool
}

// BoardW resolves the draw, sourcing the named §5.1 operating points from
// package platform — the one definition the old call sites each inlined.
func (c Compute) BoardW() float64 {
	if c.BaseW > 0 {
		return c.BaseW
	}
	return platform.FlightComputeW(c.SLAM)
}

// Offload attaches an offload session: SLAM-class work shipped to a remote
// node over a radio, with retry/fallback/recovery priced into the compute
// power the autopilot carries (Equation 7's subject).
type Offload struct {
	// Session configures the link, node and workload; the session's jitter
	// source is seeded from Spec.Seed.
	Session offload.SessionConfig
	// Stats is the per-mission SLAM work ledger the session prices.
	Stats slam.Stats
}

// Telemetry streams MAVLink frames to a caller-owned sink (a TCP
// connection, a lossy link into a ground station, a file).
type Telemetry struct {
	// EverySteps is the physics-step cadence between frames (default 250,
	// i.e. 4 Hz at the 1 kHz physics rate).
	EverySteps int
	// Send receives each telemetry burst (complete, contiguous frames); nil
	// disables telemetry. Send borrows raw only for the duration of the call
	// — the stack encodes the next burst into the same buffer — so a sink
	// that keeps the bytes must copy them.
	Send func(raw []byte)
}

// FaultInjector is the scenario's view of a deterministic fault source
// (implemented by *faultx.Injector; an interface here so faultx can itself
// build campaigns on scenario without an import cycle). Build binds it to
// the plant and installs it behind every host-owned fault interface.
type FaultInjector interface {
	// Bind attaches the injector to the plant, pack and environment.
	Bind(q *sim.Quad, p *power.Pack, e *sim.Environment)
	// Apply pushes time-driven physical effects (sag, derate, gusts) at t.
	Apply(t float64)
	sensors.FaultView
	autopilot.FaultSignals
	offload.LinkProbe
}

// Spec declares one closed-loop flight experiment. The zero value (plus a
// seed) flies cmd/flysim's reference configuration: the default 450 mm
// quad, calm air, a 3S/3000 pack, the RPi+Navio2 autopilot draw, and the
// 12 m box mission at 5 m for up to 240 simulated seconds.
type Spec struct {
	// Seed drives every stochastic stream in the stack.
	Seed int64

	// Quad overrides the plant configuration (nil = sim.DefaultConfig()).
	Quad *sim.Config
	// Wind selects the environment (zero = calm).
	Wind Wind
	// Battery selects the pack (zero = 3S/3000/30).
	Battery Battery
	// Compute selects the companion-computer draw (zero = RPi+Navio2).
	Compute Compute
	// TakeoffAltM is the takeoff altitude (default 5).
	TakeoffAltM float64
	// Workload is what the vehicle does after takeoff (nil = mission.Box{},
	// the 12 m reference box).
	Workload mission.Workload
	// MaxSeconds is the workload's time budget (default 240). Only the
	// waypoint kinds bound the whole flight by it; each kind's
	// mission.Lifecycle declares how it reads it (see mission.Context).
	MaxSeconds float64

	// EnergyPolicy arms the Table 1 flight-time-management failsafe
	// (autopilot.Config.EnergyPolicy).
	EnergyPolicy bool
	// Faults, when non-nil, is bound to the plant and installed behind the
	// sensor, autopilot and offload fault interfaces.
	Faults FaultInjector
	// Offload, when non-nil, attaches an offload session whose airborne
	// power is folded into the compute draw at 10 Hz.
	Offload *Offload
	// Telemetry, when Send is non-nil, streams MAVLink frames.
	Telemetry Telemetry

	// Observers are user step observers, registered after the built-in
	// ones in slice order.
	Observers []autopilot.StepObserver
}

func (s Spec) withDefaults() Spec {
	if s.TakeoffAltM <= 0 {
		s.TakeoffAltM = 5
	}
	if s.MaxSeconds <= 0 {
		s.MaxSeconds = 240
	}
	s.Battery = s.Battery.withDefaults()
	if s.Telemetry.EverySteps <= 0 {
		s.Telemetry.EverySteps = 250
	}
	if s.Workload == nil {
		s.Workload = mission.Box{}
	}
	return s
}

// Stack is a fully wired flight stack, ready to Run. All fields are the
// live objects (read-mostly once Run starts) until Result.Release pools them.
type Stack struct {
	Spec      Spec // normalized (defaults resolved)
	Quad      *sim.Quad
	Env       *sim.Environment
	Battery   *power.Pack
	Autopilot *autopilot.Autopilot
	Session   *offload.Session // nil without Spec.Offload
	Log       *autopilot.FlightLog

	baseComputeW float64
	designMassKg float64
	steps        int
	traj         parallelx.Recording[mathx.Vec3] // the trajectory tap's samples
	maxEstErr    float64
	energyWh     float64
	computeWh    float64
	telemSeq     uint8
	telem        []byte // the telemetry burst Send borrows, reused every burst
	ran          bool
	drv          driver
	wl           mission.Driver
}

// The Stack is the mission.Host its workload driver flies against.
var _ mission.Host = (*Stack)(nil)

// AP implements mission.Host.
func (st *Stack) AP() *autopilot.Autopilot { return st.Autopilot }

// SetPayloadKg implements mission.Host: attach (or release) a carried
// payload mid-flight. The mass is physical — it enters the plant's dynamics
// immediately — and the position controller's feedforward is retrimmed so
// the cascade expects the mass it is actually lifting.
func (st *Stack) SetPayloadKg(kg float64) {
	st.Quad.SetPayloadKg(kg)
	st.Autopilot.Cascade().MassKg = st.designMassKg + st.Quad.PayloadKg()
}

// Build performs all cross-package wiring for a Spec and registers the
// built-in step observers in the documented order. It does not advance
// simulated time. Each part of a pooled stack is re-initialised through the
// Init its constructor uses, so it flies bit-identically to a new one.
func Build(spec Spec) (*Stack, error) {
	spec = spec.withDefaults()
	cfg := sim.DefaultConfig()
	if spec.Quad != nil {
		cfg = *spec.Quad
	}
	// Every check that can fail Build runs before a pooled stack is taken,
	// so a failed Build leaves the pool as it found it.
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: plant: %w", err)
	}
	b := spec.Battery
	if err := power.ValidatePack(b.Cells, b.CapacityMah, b.CRating); err != nil {
		return nil, fmt.Errorf("scenario: battery: %w", err)
	}
	wl, err := spec.Workload.New(mission.Context{
		Seed: spec.Seed, TakeoffAltM: spec.TakeoffAltM, MaxSeconds: spec.MaxSeconds,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: workload: %w", err)
	}
	if spec.Offload != nil {
		if err := offload.ValidateLedger(spec.Offload.Stats); err != nil {
			return nil, fmt.Errorf("scenario: offload: %w", err)
		}
	}

	st := stacks.Get().(*Stack)
	q, env, pack, ap := st.Quad, st.Env, st.Battery, st.Autopilot
	q.Init(cfg)
	var wind Wind // calm
	if spec.Wind.MeanMS > 0 {
		wind = spec.Wind
	}
	env.Init(spec.Seed, wind.MeanMS, wind.GustMS)
	q.SetEnvironment(env)
	pack.Init(b.Cells, b.CapacityMah, b.CRating)
	baseW := spec.Compute.BoardW()
	ap.Init(autopilot.Config{
		Quad: q, Battery: pack, ComputeW: baseW, TakeoffAltM: spec.TakeoffAltM,
		EnergyPolicy: spec.EnergyPolicy, Seed: spec.Seed,
	})
	var sess *offload.Session
	if spec.Offload != nil {
		if sess = st.Session; sess == nil {
			sess = new(offload.Session)
		}
		sess.Init(spec.Offload.Session, spec.Offload.Stats, spec.Seed)
	}

	*st = Stack{
		Spec: spec, Quad: q, Env: env, Battery: pack, Autopilot: ap, Session: sess, Log: st.Log,
		baseComputeW: baseW, designMassKg: cfg.MassKg, traj: st.traj, telem: st.telem[:0], wl: wl,
	}
	if spec.Faults != nil {
		spec.Faults.Bind(q, pack, env)
		ap.Suite().Faults = spec.Faults
		ap.SetFaultSignals(spec.Faults)
		if sess != nil {
			sess.SetProbe(spec.Faults)
		}
	}

	// Observer bus, in the package-documented order.
	ap.AttachFlightLog(st.Log)
	ap.Observe(st.probe)
	for _, fn := range spec.Observers {
		ap.Observe(fn)
	}
	return st, nil
}

// probe is the scenario's built-in step observer: physical fault effects at
// 100 Hz, the offload retry loop, trajectory tap and estimator-error watch
// at 10 Hz, telemetry at the configured cadence, and trapezoid-free energy
// integration every step. Cadences are step-counted (not time-compared) so
// they cannot drift off the float time grid.
func (st *Stack) probe(a *autopilot.Autopilot, dt float64) {
	t := a.Time()
	if st.Spec.Faults != nil && st.steps%10 == 0 { // 100 Hz
		st.Spec.Faults.Apply(t)
	}
	if st.steps%100 == 0 { // 10 Hz
		if st.Session != nil {
			st.Session.Step(t)
			a.SetComputeW(st.baseComputeW + st.Session.AirborneW())
		}
		st.traj.Append(a.Quad().State().Pos)
		if a.Mode() != autopilot.Disarmed {
			if e := a.EstimatedState().Pos.Sub(a.Quad().State().Pos).Norm(); e > st.maxEstErr {
				st.maxEstErr = e
			}
		}
	}
	if st.Spec.Telemetry.Send != nil && st.steps%st.Spec.Telemetry.EverySteps == 0 {
		if raw, err := a.AppendTelemetry(st.telem[:0], &st.telemSeq); err == nil {
			st.telem = raw
			st.Spec.Telemetry.Send(raw)
		}
	}
	st.energyWh += a.TotalPowerW() * dt / 3600
	st.computeWh += a.ComputeW() * dt / 3600
	st.steps++
}

// driverState enumerates the lifecycle's phases, shared by every workload.
type driverState int

const (
	drvUnstarted driverState = iota
	drvTakeoff               // until mode != Takeoff, at most int(30*hz) steps
	drvActive                // the workload's budget, early end and step hook
	drvLanding               // after CommandLand, until DISARMED, at most int(60*hz) steps
	drvDone
)

// landingWatchS is the landing watch's budget in seconds.
const landingWatchS = 60

// driver is the resumable flight lifecycle. Budgets are integer step
// counts, int(seconds*hz) truncated, and each phase's stop condition is
// checked after every step, the budget's last included, so a flight ticked
// one step at a time is bit-identical to the historical blocking sequence.
// This is what lets Batch interleave N flights on one engine: each lane
// advances exactly one physics step per Tick regardless of what phase it is
// in.
type driver struct {
	state     driverState
	budget    int // remaining steps in the current phase
	takeoffOK bool
	lc        mission.Lifecycle
	step      mission.Stepper // the workload's per-step hook, nil without one
	end       mission.Ending
	err       error
	result    *Result
}

// Start arms the stack and enters the takeoff phase without advancing
// simulated time. It may be called once; Run calls it implicitly.
func (st *Stack) Start() error {
	if st.ran {
		return errors.New("scenario: stack already ran")
	}
	st.ran = true
	st.drv.lc = st.wl.Lifecycle()
	st.drv.step, _ = st.wl.(mission.Stepper)
	if err := st.wl.Start(st); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := st.Autopilot.Arm(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	st.enter(drvTakeoff, 30)
	return nil
}

// Tick advances the flight by exactly one physics step and runs the state
// machine's between-step transitions. It reports whether the flight has
// finished; after done, Result/Err hold the outcome and further Ticks are
// no-ops. The sequence of Ticks reproduces the blocking Run bit for bit.
func (st *Stack) Tick() (done bool, err error) {
	if st.drv.state == drvUnstarted {
		return true, errors.New("scenario: Tick before Start")
	}
	if st.drv.state == drvDone {
		return true, st.drv.err
	}
	ap := st.Autopilot
	ap.Step()
	st.drv.budget--
	switch st.drv.state {
	case drvTakeoff:
		if ap.Mode() != autopilot.Takeoff || st.drv.budget <= 0 {
			st.endTakeoff()
		}
	case drvActive:
		if st.drv.step != nil {
			st.drv.step.Step(st)
		}
		if st.drv.lc.EndAtTerminal && ap.Mode() == st.drv.lc.Terminal {
			st.finish()
		} else if st.drv.budget <= 0 {
			st.lapse()
		}
	case drvLanding:
		if ap.Mode() == autopilot.Disarmed || st.drv.budget <= 0 {
			st.finish()
		}
	}
	return st.drv.state == drvDone, st.drv.err
}

// Done reports whether the flight has finished (normally or with an error).
func (st *Stack) Done() bool { return st.drv.state == drvDone }

// SimTimeS returns the stack's current simulated time in seconds; it is
// valid at any point between ticks and advances monotonically.
func (st *Stack) SimTimeS() float64 { return st.Autopilot.Time() }

// Result returns the structured outcome once Done (nil on error or before).
func (st *Stack) Result() *Result { return st.drv.result }

// enter starts a phase with a budget of seconds, int(seconds*hz) physics
// steps truncated, and reports whether that budget is already spent.
func (st *Stack) enter(state driverState, seconds float64) (spent bool) {
	st.drv.state = state
	st.drv.budget = int(seconds * st.Autopilot.PhysicsHz())
	return st.drv.budget <= 0
}

// endTakeoff evaluates the takeoff outcome and branches, exactly at the
// step boundary the blocking sequence branched on.
func (st *Stack) endTakeoff() {
	// The phase ended either because the mode left Takeoff or because the
	// 30 s budget lapsed; in both cases the historical takeoffOK reduces to
	// "is the vehicle now holding in Hover".
	st.drv.takeoffOK = st.Autopilot.Mode() == autopilot.Hover
	if !st.drv.takeoffOK {
		st.branch(st.drv.lc.TakeoffFail)
		return
	}
	if err := st.wl.Begin(st); err != nil {
		st.fail(fmt.Errorf("scenario: %w", err))
		return
	}
	st.branch(mission.Fly)
}

// branch moves the flight to the phase b names. A phase whose budget is
// spent at entry resolves at once.
func (st *Stack) branch(b mission.Branch) {
	ap := st.Autopilot
	switch b {
	case mission.Fly:
		s := st.drv.lc.ActiveS
		if st.drv.lc.FromLaunch {
			s -= ap.Time()
		}
		if st.enter(drvActive, s) {
			st.lapse()
		}
	case mission.Land:
		ap.CommandLand()
		if st.enter(drvLanding, landingWatchS) {
			st.finish()
		}
	default:
		st.finish()
	}
}

// lapse closes an active phase whose budget ran out: it records the mode
// the workload's outcome reads and lands or ends the flight.
func (st *Stack) lapse() {
	st.drv.end = mission.Ending{Lapsed: true, LapseMode: st.Autopilot.Mode()}
	if st.drv.lc.Lapse == mission.Land {
		st.branch(mission.Land)
	} else {
		st.finish()
	}
}

// fail terminates the flight with an error and no Result, matching the
// blocking Run's early-error returns.
func (st *Stack) fail(err error) {
	st.drv.err = err
	st.drv.state = drvDone
}

// finish closes out a completed flight with the structured Result. The
// workload counts as completed only in its declared terminal state.
func (st *Stack) finish() {
	st.drv.state = drvDone
	ap := st.Autopilot
	out := st.wl.Outcome(st, st.drv.end)
	out.Completed = out.Completed && ap.Mode() == st.drv.lc.Terminal
	res := &Result{
		FlightTimeS: ap.Time(),
		TakeoffOK:   st.drv.takeoffOK,
		Completed:   ap.MissionCompleted(),
		Workload:    out,
		FinalMode:   ap.Mode(),
		LastEvent:   ap.LastEvent(),
		Trajectory:  &st.traj.Series,
		MaxEstErrM:  st.maxEstErr,
		EnergyWh:    st.energyWh,
		ComputeWh:   st.computeWh,
		Log:         st.Log,
		EKFStats:    ap.Estimator().Pos.Stats,
		CtrlStats:   ap.Cascade().Stats,
		st:          st,
	}
	if st.Session != nil {
		res.Fallbacks = st.Session.Fallbacks
		res.Recoveries = st.Session.Recoveries
	}
	st.drv.result = res
}

// Run drives the stack through the fixed lifecycle: arm, take off (30 s
// budget), fly the workload's active phase under its own budget (see
// mission.Lifecycle), watch the landing for kinds that land, and return the
// structured Result. It may be called once; it is exactly a batch of one —
// Start, then Tick to completion.
func (st *Stack) Run() (*Result, error) {
	if err := st.Start(); err != nil {
		return nil, err
	}
	for !st.Done() {
		if _, err := st.Tick(); err != nil {
			return nil, err
		}
	}
	if st.drv.err != nil {
		return nil, st.drv.err
	}
	return st.drv.result, nil
}

// Run builds a Spec and flies it — the one-call form every non-interactive
// call site uses.
func Run(spec Spec) (*Result, error) {
	st, err := Build(spec)
	if err != nil {
		return nil, err
	}
	return st.Run()
}
