package faultx

import (
	"encoding/json"
	"fmt"
	"strings"

	"dronedse/autopilot"
	"dronedse/groundstation"
	"dronedse/mathx"
	"dronedse/mission"
	"dronedse/offload"
	"dronedse/platform"
	"dronedse/scenario"
	"dronedse/slam"
)

// Scenario is one campaign entry: a seed, a fault plan, and the telemetry
// link's loss profile.
type Scenario struct {
	Name string
	Seed int64
	Plan Plan
	// Link mangles the telemetry stream to the ground station (zero =
	// clean link).
	Link LinkLoss
}

// LinkLoss is the telemetry LossyLink's probability profile.
type LinkLoss struct {
	Drop, Corrupt, Dup, Trunc, Reorder float64
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
// flysim reference mission (the box at 5 m on a 3S/3000 pack) for up to
// 240 simulated seconds.
type Config struct {
	// MaxSeconds bounds each flight (default 240).
	MaxSeconds float64
	// TakeoffAltM (default 5) and the box mission derived from it match
	// cmd/flysim, so the fault-free row is bit-identical to flysim.
	TakeoffAltM float64
	// BaseComputeW is the autopilot-board draw before the offload
	// session's share (default platform.FlightComputeW(false), the flysim
	// RPi + Navio2).
	BaseComputeW float64
	// Workload selects what every flight in the campaign does after
	// takeoff (nil = the reference box mission, the historical campaign).
	// Every workload kind thus gets a fault-campaign variant for free:
	// same injectors, same lossy telemetry, same classification.
	Workload mission.Workload
}

func (c Config) withDefaults() Config {
	if c.MaxSeconds <= 0 {
		c.MaxSeconds = 240
	}
	if c.TakeoffAltM <= 0 {
		c.TakeoffAltM = 5
	}
	if c.BaseComputeW <= 0 {
		c.BaseComputeW = platform.FlightComputeW(false)
	}
	return c
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
	// Ground-station accounting over the (possibly lossy) telemetry link.
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
	traj []mathx.Vec3 // true position at 10 Hz
}

// campaignSLAMStats is the fixed per-mission SLAM ledger the offload
// session prices (a mid-size visual-SLAM frame budget; the exact numbers
// only scale the latency model, not the control loop).
func campaignSLAMStats() slam.Stats {
	return slam.Stats{FeatureExtractionOps: 40e6, MatchingOps: 20e6, LocalBAOps: 30e6, Frames: 100}
}

// Run flies the fault-free baseline for every distinct seed plus every
// scenario as lanes of one scenario.Batch: a single engine steps all
// flights tick by tick, fanning fixed-width lane chunks across the
// parallelx pool. Each lane carries its own RNG streams, injector and
// telemetry link, so results are ordered like the input and bit-identical
// at any pool size and any batch composition (the batch engine's lane-
// determinism contract) — the campaign table is byte-identical to running
// every flight serially.
func Run(scenarios []Scenario, cfg Config) (*Campaign, error) {
	cfg = cfg.withDefaults()
	if cfg.Workload != nil {
		if err := cfg.Workload.Validate(); err != nil {
			return nil, fmt.Errorf("campaign workload: %w", err)
		}
	}
	for _, sc := range scenarios {
		if err := sc.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}
	// Distinct seeds in first-appearance order.
	var seeds []int64
	seen := map[int64]bool{}
	for _, sc := range scenarios {
		if !seen[sc.Seed] {
			seen[sc.Seed] = true
			seeds = append(seeds, sc.Seed)
		}
	}
	// One lane per baseline seed, then one per scenario — a single batch.
	lanes := make([]lane, 0, len(seeds)+len(scenarios))
	for _, seed := range seeds {
		lanes = append(lanes, buildLane(Scenario{Name: "baseline", Seed: seed}, cfg))
	}
	for _, sc := range scenarios {
		lanes = append(lanes, buildLane(sc, cfg))
	}
	specs := make([]scenario.Spec, len(lanes))
	for i := range lanes {
		specs[i] = lanes[i].spec
	}
	results, errs := scenario.RunBatch(specs)
	outs := make([]runOut, len(lanes))
	for i := range lanes {
		if errs[i] != nil {
			panic(errs[i]) // the campaign spec is statically valid
		}
		outs[i] = lanes[i].finish(results[i])
	}
	baseBySeed := make(map[int64]runOut, len(seeds))
	c := &Campaign{}
	for _, b := range outs[:len(seeds)] {
		baseBySeed[b.res.Seed] = b
		c.Baselines = append(c.Baselines, b.res)
	}
	for _, r := range outs[len(seeds):] {
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

// maxDivergence is the largest pointwise distance over the common prefix.
func maxDivergence(a, b []mathx.Vec3) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	worst := 0.0
	for i := 0; i < n; i++ {
		if d := a[i].Sub(b[i]).Norm(); d > worst {
			worst = d
		}
	}
	return worst
}

// lane is one batch lane in flight: the Spec the scenario engine flies plus
// the lane-private telemetry plumbing (LossyLink into a ground station) the
// campaign row is scored against after landing. Everything a lane touches
// during stepping is lane-owned, so co-tenant lanes in a batch cannot
// perturb it.
type lane struct {
	sc   Scenario
	spec scenario.Spec
	link *LossyLink
	gs   *groundstation.Station
}

// buildLane assembles a single scenario closed-loop: the flysim stack —
// declared as a scenario.Spec — plus the injector, an offload session
// polling the injected link, and telemetry streamed through a LossyLink
// into a ground station.
func buildLane(sc Scenario, cfg Config) lane {
	inj, err := NewInjector(sc.Plan, sc.Seed)
	if err != nil {
		panic(err) // validated by Run
	}
	link := NewLossyLink(sc.Seed + 1)
	link.DropProb, link.CorruptProb = sc.Link.Drop, sc.Link.Corrupt
	link.DupProb, link.TruncProb = sc.Link.Dup, sc.Link.Trunc
	link.ReorderProb = sc.Link.Reorder
	gs := groundstation.New()
	policy := autopilot.DefaultEnergyPolicy()

	return lane{
		sc:   sc,
		link: link,
		gs:   gs,
		spec: scenario.Spec{
			Seed:         sc.Seed,
			Workload:     cfg.Workload,
			TakeoffAltM:  cfg.TakeoffAltM,
			MaxSeconds:   cfg.MaxSeconds,
			Compute:      scenario.Compute{BaseW: cfg.BaseComputeW},
			EnergyPolicy: &policy,
			Faults:       inj,
			Offload: &scenario.Offload{
				Session: offload.SessionConfig{
					Link: offload.WiFi5GHz(), Node: offload.GroundStationGPU(),
					W: offload.SLAMWorkload(), OnboardW: 2.0, OnboardG: 50,
				},
				Stats: campaignSLAMStats(),
			},
			Telemetry: scenario.Telemetry{Send: func(raw []byte) {
				if got := link.Transmit(raw); len(got) > 0 {
					gs.Consume(got)
				}
			}},
		},
	}
}

// finish drains the lane's telemetry link and folds the flight outcome into
// a campaign row.
func (l lane) finish(res *scenario.Result) runOut {
	if tail := l.link.Transmit(l.link.Flush()); len(tail) > 0 {
		l.gs.Consume(tail)
	}
	return runOut{
		traj: res.Trajectory,
		res: Result{
			Scenario:         l.sc.Name,
			Seed:             l.sc.Seed,
			Outcome:          classify(res),
			FlightTimeS:      res.FlightTimeS,
			MaxEstErrM:       res.MaxEstErrM,
			EnergyWh:         res.EnergyWh,
			Fallbacks:        res.Fallbacks,
			Recoveries:       res.Recoveries,
			TelemetryFrames:  l.gs.State().Frames,
			TelemetryDropped: l.link.Stats.Dropped,
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
	// res.Completed is the waypoint-mission notion; the workload's own
	// Completed covers the kinds without one (hover's full loiter, follow's
	// full track). For waypoint workloads the two agree, so the historical
	// box-campaign classification is unchanged.
	if res.Completed || res.Workload.Completed {
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
