package faultx

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"dronedse/autopilot"
	"dronedse/mathx"
	"dronedse/mavlink"
	"dronedse/mission"
	"dronedse/offload"
	"dronedse/parallelx"
	"dronedse/scenario"
	"dronedse/slam"
)

// Scenario is one campaign entry: a seed, a fault plan, and the telemetry
// link's loss profile.
type Scenario struct {
	Name string
	Seed int64
	Plan Plan
	// Link mangles the telemetry downlink (zero = clean link); every
	// probability must lie in [0, 1].
	Link LinkLoss
}

// LinkLoss is the telemetry LossyLink's probability profile.
type LinkLoss struct {
	Drop, Corrupt, Dup, Trunc, Reorder float64
}

// validate rejects a probability that is non-finite or outside [0, 1].
func (l LinkLoss) validate() error {
	for _, p := range [...]float64{l.Drop, l.Corrupt, l.Dup, l.Trunc, l.Reorder} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("faultx: link probability %v outside [0,1]", p)
		}
	}
	return nil
}

// Outcome classifies how a scenario flight ended.
type Outcome string

// Outcomes, from best to worst.
const (
	// OutcomeCompleted: every waypoint visited, landed, disarmed.
	OutcomeCompleted Outcome = "completed"
	// OutcomeRTL: a failsafe (or mission abort) brought the vehicle home
	// before the mission finished, but it landed intact.
	OutcomeRTL Outcome = "rtl"
	// OutcomeLanded: a failsafe landed in place (battery drained).
	OutcomeLanded Outcome = "landed"
	// OutcomeTimeout: still airborne when the campaign clock expired.
	OutcomeTimeout Outcome = "timeout"
	// OutcomeCrashed: the crash check fired; the vehicle is down hard.
	OutcomeCrashed Outcome = "crashed"
)

// Config shapes every flight in a campaign. The zero value flies the
// flysim reference mission (the box at 5 m on a 3S/3000 pack, with the
// RPi + Navio2 autopilot draw before the offload session's share) for up
// to 240 simulated seconds, so the fault-free row is bit-identical to
// flysim.
type Config struct {
	// MaxSeconds bounds each flight (scenario.Spec's default, 240).
	MaxSeconds float64
	// Workload selects what every flight in the campaign does after
	// takeoff (nil = the reference box mission, the historical campaign).
	// Every workload kind thus gets a fault-campaign variant for free:
	// same injectors, same lossy telemetry, same classification.
	Workload mission.Workload
}

// Result is one row of the campaign table.
type Result struct {
	Scenario    string  `json:"scenario"`
	Seed        int64   `json:"seed"`
	Outcome     Outcome `json:"outcome"`
	FlightTimeS float64 `json:"flight_time_s"`
	// DeltaFlightTimeS is FlightTimeS minus the fault-free flight at the
	// same seed (zero for the baseline row itself).
	DeltaFlightTimeS float64 `json:"delta_flight_time_s"`
	// MaxPathDivM is the largest true-position divergence from the
	// fault-free trajectory, sampled at 10 Hz over the common duration.
	MaxPathDivM float64 `json:"max_path_divergence_m"`
	// MaxEstErrM is the worst estimator error (|estimate - truth|) seen
	// while airborne — the coasting/degradation signal.
	MaxEstErrM float64 `json:"max_est_err_m"`
	EnergyWh   float64 `json:"energy_wh"`
	// Offload session accounting.
	Fallbacks  int `json:"offload_fallbacks"`
	Recoveries int `json:"offload_recoveries"`
	// Receiver accounting over the (possibly lossy) telemetry link.
	TelemetryFrames  int    `json:"telemetry_frames"`
	TelemetryDropped int    `json:"telemetry_chunks_dropped"`
	LastEvent        string `json:"last_event"`
}

// Campaign is a full run: the per-seed fault-free baselines plus one row
// per scenario.
type Campaign struct {
	Baselines []Result `json:"baselines"`
	Results   []Result `json:"results"`
}

// runOut carries a Result plus the data needed for baseline comparison.
type runOut struct {
	res  Result
	traj *parallelx.Series[mathx.Vec3] // true position at 10 Hz, until Release
}

// campaignSLAMStats is the fixed per-mission SLAM ledger the offload
// session prices (a mid-size visual-SLAM frame budget; the exact numbers
// only scale the latency model, not the control loop).
func campaignSLAMStats() slam.Stats {
	return slam.Stats{FeatureExtractionOps: 40e6, MatchingOps: 20e6, LocalBAOps: 30e6, Frames: 100}
}

// Run flies the fault-free baseline for every distinct seed plus every
// scenario on one scenario.Batch: a single engine steps all flights tick by
// tick, fanning fixed-width lane chunks across the parallelx pool. The
// batch has one lane per distinct flight, not one per row: rows (the
// baselines, then the scenarios) with the same seed and bit-identical fault
// events share the lane of the first of them. Neither the plan's name nor
// the telemetry link is flown (the link is one-way), so the lane's
// telemetry fans out to every member row's own LossyLink and MAVLink
// parser, in row order, and each row is scored from the shared flight.
// Each lane carries its own RNG streams and injector, so results are
// ordered like the input and bit-identical at any pool size and any batch
// composition (the batch engine's lane-determinism contract) — the
// campaign table is byte-identical to flying every row on its own.
func Run(scenarios []Scenario, cfg Config) (*Campaign, error) {
	if cfg.Workload != nil {
		if err := cfg.Workload.Validate(); err != nil {
			return nil, fmt.Errorf("campaign workload: %w", err)
		}
	}
	for _, sc := range scenarios {
		if err := sc.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		if err := sc.Link.validate(); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}
	lanes, rows, nBase := layout(scenarios, cfg)
	specs := make([]scenario.Spec, len(lanes))
	for i := range lanes {
		specs[i] = lanes[i].spec
	}
	results, errs := scenario.RunBatch(specs)
	outs := make([]runOut, len(rows))
	for i, r := range rows {
		if errs[r.lane] != nil {
			panic(errs[r.lane]) // the campaign spec is statically valid
		}
		outs[i] = r.finish(results[r.lane])
	}
	baseBySeed := make(map[int64]runOut, nBase)
	c := &Campaign{}
	for _, b := range outs[:nBase] {
		baseBySeed[b.res.Seed] = b
		c.Baselines = append(c.Baselines, b.res)
	}
	for _, r := range outs[nBase:] {
		base := baseBySeed[r.res.Seed]
		r.res.DeltaFlightTimeS = r.res.FlightTimeS - base.res.FlightTimeS
		r.res.MaxPathDivM = maxDivergence(r.traj, base.traj)
		c.Results = append(c.Results, r.res)
	}
	// Every row and divergence is computed: the flights' stacks can go to
	// the next campaign's lanes.
	for _, res := range results {
		res.Release()
	}
	return c, nil
}

// layout lays a campaign out as batch lanes: one row per distinct seed's
// baseline (nBase of them, first-appearance order), then one per scenario,
// each row joining the lane of the first earlier row that flies the same
// flight.
func layout(scenarios []Scenario, cfg Config) (lanes []*lane, rows []*row, nBase int) {
	var all []Scenario
	seen := map[int64]bool{}
	for _, sc := range scenarios {
		if !seen[sc.Seed] {
			seen[sc.Seed] = true
			all = append(all, Scenario{Name: "baseline", Seed: sc.Seed})
		}
	}
	nBase = len(all)
	all = append(all, scenarios...)
	rows = make([]*row, len(all))
	for i, sc := range all {
		r := newRow(sc)
		r.lane = slices.IndexFunc(lanes, func(l *lane) bool { return sameFlight(l.rows[0].sc, sc) })
		if r.lane < 0 {
			r.lane = len(lanes)
			lanes = append(lanes, newLane(sc, cfg))
		}
		lanes[r.lane].rows = append(lanes[r.lane].rows, r)
		rows[i] = r
	}
	return lanes, rows, nBase
}

// sameFlight reports whether a and b fly bit-identical flights: the same
// seed and the same fault events, floats compared by their bits so -0 and
// +0 never share. The plan name and the telemetry link are not flown.
func sameFlight(a, b Scenario) bool {
	if a.Seed != b.Seed || len(a.Plan.Events) != len(b.Plan.Events) {
		return false
	}
	for i := range a.Plan.Events {
		if !sameEvent(&a.Plan.Events[i], &b.Plan.Events[i]) {
			return false
		}
	}
	return true
}

func sameEvent(a, b *Event) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Kind == b.Kind && a.Sensor == b.Sensor && a.Motor == b.Motor &&
		same(a.Start, b.Start) && same(a.Duration, b.Duration) &&
		same(a.Frac, b.Frac) && same(a.Mag, b.Mag) && same(a.Prob, b.Prob) &&
		same(a.Vec.X, b.Vec.X) && same(a.Vec.Y, b.Vec.Y) && same(a.Vec.Z, b.Vec.Z)
}

// maxDivergence is the largest pointwise distance over the common prefix.
func maxDivergence(a, b *parallelx.Series[mathx.Vec3]) float64 {
	worst := 0.0
	for i := range min(a.Len(), b.Len()) {
		if d := a.At(i).Sub(b.At(i)).Norm(); d > worst {
			worst = d
		}
	}
	return worst
}

// lane is one batch lane in flight: the Spec the scenario engine flies plus
// the campaign rows that share it. Everything a lane touches during
// stepping is lane-owned, so co-tenant lanes in a batch cannot perturb it.
type lane struct {
	spec scenario.Spec
	rows []*row
}

// newLane assembles sc's flight closed-loop: the flysim stack — declared as
// a scenario.Spec — plus the injector and an offload session polling the
// injected link, its telemetry fanned out to every row of the lane.
func newLane(sc Scenario, cfg Config) *lane {
	inj, err := NewInjector(sc.Plan, sc.Seed)
	if err != nil {
		panic(err) // validated by Run
	}
	l := &lane{}
	l.spec = scenario.Spec{
		Seed:         sc.Seed,
		Workload:     cfg.Workload,
		MaxSeconds:   cfg.MaxSeconds,
		EnergyPolicy: true,
		Faults:       inj,
		Offload: &scenario.Offload{
			Session: offload.SessionConfig{
				Link: offload.WiFi5GHz(), Node: offload.GroundStationGPU(),
				W: offload.SLAMWorkload(), OnboardW: 2.0,
			},
			Stats: campaignSLAMStats(),
		},
		// Transmit copies the borrowed burst, so every row's link may
		// read it in turn.
		Telemetry: scenario.Telemetry{Send: func(raw []byte) {
			for _, r := range l.rows {
				r.receive(raw)
			}
		}},
	}
	return l
}

// row is one campaign row's telemetry plumbing: a LossyLink into a MAVLink
// parser, whose Complete count (a ground station's Frames) the row reports.
type row struct {
	sc     Scenario
	lane   int // index of the lane flying this row
	link   *LossyLink
	parser mavlink.Parser
}

func newRow(sc Scenario) *row {
	link := NewLossyLink(sc.Seed + 1)
	link.DropProb, link.CorruptProb = sc.Link.Drop, sc.Link.Corrupt
	link.DupProb, link.TruncProb = sc.Link.Dup, sc.Link.Trunc
	link.ReorderProb = sc.Link.Reorder
	return &row{sc: sc, link: link}
}

// receive passes one telemetry burst through the row's link into its
// parser.
func (r *row) receive(raw []byte) {
	r.parser.Push(r.link.Transmit(raw))
}

// finish drains the row's telemetry link and folds the flight outcome into
// a campaign row.
func (r *row) finish(res *scenario.Result) runOut {
	r.parser.Push(r.link.Transmit(r.link.Flush()))
	return runOut{
		traj: res.Trajectory,
		res: Result{
			Scenario:         r.sc.Name,
			Seed:             r.sc.Seed,
			Outcome:          classify(res),
			FlightTimeS:      res.FlightTimeS,
			MaxEstErrM:       res.MaxEstErrM,
			EnergyWh:         res.EnergyWh,
			Fallbacks:        res.Fallbacks,
			Recoveries:       res.Recoveries,
			TelemetryFrames:  r.parser.Complete,
			TelemetryDropped: r.link.Stats.Dropped,
			LastEvent:        res.LastEvent,
		},
	}
}

// classify reads the flight's end state and event log into an Outcome.
func classify(res *scenario.Result) Outcome {
	for _, e := range res.Log.Events() {
		if strings.Contains(e.Text, "crash detected") {
			return OutcomeCrashed
		}
	}
	if res.FinalMode != autopilot.Disarmed {
		return OutcomeTimeout
	}
	if res.Workload.Completed {
		return OutcomeCompleted
	}
	for _, e := range res.Log.Events() {
		if strings.Contains(e.Text, "failsafe land") {
			return OutcomeLanded
		}
	}
	return OutcomeRTL
}

// Table renders the campaign as a fixed-width text table. The format is
// fully determined by the results, so equal campaigns render byte-equal.
func (c *Campaign) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %6s %-10s %9s %9s %9s %8s %7s %5s %5s  %s\n",
		"scenario", "seed", "outcome", "flight_s", "dflight_s", "pathdiv_m",
		"esterr_m", "Wh", "fall", "recov", "last_event")
	row := func(r Result) {
		fmt.Fprintf(&b, "%-18s %6d %-10s %9.2f %9.2f %9.2f %8.2f %7.2f %5d %5d  %s\n",
			r.Scenario, r.Seed, r.Outcome, r.FlightTimeS, r.DeltaFlightTimeS,
			r.MaxPathDivM, r.MaxEstErrM, r.EnergyWh, r.Fallbacks, r.Recoveries,
			r.LastEvent)
	}
	for _, r := range c.Baselines {
		row(r)
	}
	for _, r := range c.Results {
		row(r)
	}
	return b.String()
}

// JSON renders the campaign as indented JSON.
func (c *Campaign) JSON() ([]byte, error) { return json.MarshalIndent(c, "", "  ") }
