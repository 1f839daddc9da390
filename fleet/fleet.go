// Package fleet turns the scenario engine into a long-running multi-tenant
// simulation service: jobs — JSON-serializable flight experiments derived
// from scenario.Spec — are admitted into lanes of one scenario.Batch stepped
// by a single engine goroutine, and each flight's live MAVLink telemetry
// fans out to subscribed ground-station clients through bounded drop-oldest
// queues (groundstation.Hub), so a laggard subscriber can never stall the
// tick loop.
//
// Determinism contract, inherited from the batch engine and preserved under
// multi-tenancy: a job's seed fully determines its flight. The same JobSpec
// produces bit-identical trajectory, flight-log and Equation-7 ledger
// digests whether it runs alone or beside thousands of co-tenants, at any
// parallelx pool size, in any admission order, in any lane slot — because
// every lane owns its RNG streams, scratch and ledgers outright, and lanes
// never exchange data. Job completion yields the same structured scenario.Result
// a direct scenario.Run would have returned.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"dronedse/mission"
	"dronedse/scenario"
)

// JobState is a job's lifecycle position.
type JobState int32

// Job lifecycle: Queued (waiting for a free lane) → Running (occupying a
// lane) → Done or Failed (terminal).
const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	default:
		return "failed"
	}
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == JobDone || s == JobFailed }

// JobSpec is the wire form of a flight experiment: the JSON-serializable
// subset of scenario.Spec a remote tenant may submit (no host callbacks, no
// fault-injector objects — those stay in-process). Zero values select the
// same defaults scenario.Spec documents.
type JobSpec struct {
	Seed        int64   `json:"seed"`
	MaxSeconds  float64 `json:"max_seconds,omitempty"`
	TakeoffAltM float64 `json:"takeoff_alt_m,omitempty"`

	// Workload selects what the vehicle does after takeoff (nil = the
	// reference box mission; see mission.WireSpec for the kinds).
	Workload *mission.WireSpec `json:"workload,omitempty"`

	WindMeanMS float64 `json:"wind_mean_ms,omitempty"`
	WindGustMS float64 `json:"wind_gust_ms,omitempty"`

	BatteryCells       int     `json:"battery_cells,omitempty"`
	BatteryCapacityMah float64 `json:"battery_capacity_mah,omitempty"`
	BatteryCRating     float64 `json:"battery_c_rating,omitempty"`

	// SLAM selects the SLAM-active companion-computer power phase.
	SLAM bool `json:"slam,omitempty"`

	// TelemetryEverySteps is the physics-step cadence between published
	// telemetry units (0 = the scenario default, 250 steps = 4 Hz).
	TelemetryEverySteps int `json:"telemetry_every_steps,omitempty"`

	// DeadlineS is a wall-clock budget in seconds for the job once it
	// launches (0 = the server default). A job past its deadline is evicted
	// mid-flight with ErrDeadline and journaled as CANCEL — a service
	// policy, not part of the simulated physics, so deadline kills are the
	// one deliberately nondeterministic outcome in the system.
	DeadlineS float64 `json:"deadline_s,omitempty"`
}

// Validate vets the wire form before any engine resources are committed to
// it: an unknown workload kind or a malformed workload payload is a tenant
// error the server must refuse at submit time (HTTP 400), not an engine
// fault mid-flight.
func (j JobSpec) Validate() error {
	if j.Workload == nil {
		return nil
	}
	return j.Workload.Validate()
}

// Scenario expands the wire form into the engine's Spec. The telemetry sink
// is left nil; the server installs its fan-out hub there.
func (j JobSpec) Scenario() scenario.Spec {
	spec := scenario.Spec{
		Seed:        j.Seed,
		MaxSeconds:  j.MaxSeconds,
		TakeoffAltM: j.TakeoffAltM,
		Wind:        scenario.Wind{MeanMS: j.WindMeanMS, GustMS: j.WindGustMS},
		Battery: scenario.Battery{
			Cells:       j.BatteryCells,
			CapacityMah: j.BatteryCapacityMah,
			CRating:     j.BatteryCRating,
		},
		Compute:   scenario.Compute{SLAM: j.SLAM},
		Telemetry: scenario.Telemetry{EverySteps: j.TelemetryEverySteps},
	}
	// Store the WireSpec by value: assigning the typed-nil pointer would
	// make spec.Workload a non-nil interface wrapping nil.
	if j.Workload != nil {
		spec.Workload = *j.Workload
	}
	return spec
}

// Digests are the determinism contract's fingerprints, taken at full
// float-bit fidelity over the three artifacts multi-tenancy must not
// perturb: the 10 Hz trajectory, the DataFlash-style flight log, and the
// Equation-7 energy/flight-time ledger.
type Digests struct {
	Trajectory string `json:"trajectory"`
	FlightLog  string `json:"flight_log"`
	Ledger     string `json:"ledger"`
}

func putBits(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// DigestResult fingerprints a flight outcome. Two results digest equal iff
// their trajectories, logs and ledgers are bit-identical.
func DigestResult(res *scenario.Result) Digests {
	traj := sha256.New()
	for _, p := range res.Trajectory {
		putBits(traj, p.X, p.Y, p.Z)
	}

	logh := sha256.New()
	if res.TakeoffOK {
		logh.Write([]byte{1})
	} else {
		logh.Write([]byte{0})
	}
	if res.Completed {
		logh.Write([]byte{1})
	} else {
		logh.Write([]byte{0})
	}
	logh.Write([]byte(res.FinalMode.String()))
	logh.Write([]byte(res.LastEvent))
	for _, e := range res.Log.Entries() {
		putBits(logh, e.TimeS, e.PosX, e.PosY, e.Alt, e.Speed,
			e.Roll, e.Pitch, e.Yaw, e.PowerW, e.BatterySoC)
		logh.Write([]byte(e.Mode.String()))
	}
	for _, e := range res.Log.Events() {
		putBits(logh, e.TimeS)
		logh.Write([]byte(e.Text))
	}

	ledger := sha256.New()
	putBits(ledger, res.FlightTimeS, res.EnergyWh, res.ComputeWh,
		res.MaxEstErrM, res.AvgPowerW(), res.AvgComputeW(), res.ComputeFlightCostMin())
	putBits(ledger, float64(res.Fallbacks), float64(res.Recoveries))

	return Digests{
		Trajectory: hex.EncodeToString(traj.Sum(nil)),
		FlightLog:  hex.EncodeToString(logh.Sum(nil)),
		Ledger:     hex.EncodeToString(ledger.Sum(nil)),
	}
}

// JobStatus is the API view of a job.
type JobStatus struct {
	ID    uint64  `json:"id"`
	State string  `json:"state"`
	Spec  JobSpec `json:"spec"`

	// Terminal-state summary (zero until Done/Failed).
	FlightTimeS          float64  `json:"flight_time_s,omitempty"`
	EnergyWh             float64  `json:"energy_wh,omitempty"`
	ComputeWh            float64  `json:"compute_wh,omitempty"`
	ComputeFlightCostMin float64  `json:"compute_flight_cost_min,omitempty"`
	Completed            bool     `json:"completed,omitempty"`
	FinalMode            string   `json:"final_mode,omitempty"`
	Digests              *Digests `json:"digests,omitempty"`
	Error                string   `json:"error,omitempty"`

	// SimTimeS is the running job's current simulated time — live progress
	// for in-flight jobs, zero once terminal (FlightTimeS takes over).
	SimTimeS float64 `json:"sim_time_s,omitempty"`
}

// Stats is the server's aggregate counter snapshot.
type Stats struct {
	Submitted int `json:"submitted"`
	Queued    int `json:"queued"`
	Live      int `json:"live"`
	PeakLive  int `json:"peak_live"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`

	// Draining reports a graceful shutdown in progress: submissions are
	// refused while in-flight jobs finish.
	Draining bool `json:"draining,omitempty"`

	// Ticks counts engine advances; LaneSteps the total physics steps
	// summed over every lane those advances moved.
	Ticks     uint64 `json:"ticks"`
	LaneSteps uint64 `json:"lane_steps"`

	// Telemetry fan-out accounting, summed over every job's hub.
	FramesPublished uint64 `json:"frames_published"`
	FramesDropped   uint64 `json:"frames_dropped"`
	Subscribers     int    `json:"subscribers"`
	// TelemetryBacklog is the total queued-but-undelivered units across all
	// subscribers right now.
	TelemetryBacklog int `json:"telemetry_backlog,omitempty"`
}
