package scenario_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"testing"

	"dronedse/autopilot"
	"dronedse/mission"
	"dronedse/parallelx"
	"dronedse/scenario"
	"dronedse/sim"
	"dronedse/trace"
)

// identitySpecs is the bit-identity property-test fleet: a factory (fault
// injectors and observers are stateful, so every run gets fresh specs)
// covering hover and mission branches, wind, SLAM compute, a bigger pack,
// and mission flights truncated by MaxSeconds mid-air.
func identitySpecs() []scenario.Spec {
	return []scenario.Spec{
		{Seed: 11, Workload: mission.Hover{}, MaxSeconds: 2},
		{Seed: 12, Workload: mission.Hover{}, MaxSeconds: 3, Wind: scenario.Wind{MeanMS: 4, GustMS: 2}},
		{Seed: 13, MaxSeconds: 25},
		{Seed: 14, MaxSeconds: 30, Wind: scenario.Wind{MeanMS: 6, GustMS: 3}},
		{Seed: 15, Workload: mission.Hover{}, MaxSeconds: 2, Compute: scenario.Compute{SLAM: true}},
		{Seed: 16, Workload: mission.Hover{}, MaxSeconds: 4, TakeoffAltM: 8},
		{Seed: 17, MaxSeconds: 20},
		{Seed: 18, Workload: mission.Hover{}, MaxSeconds: 2, Battery: scenario.Battery{Cells: 4, CapacityMah: 5000}},
	}
}

func putBits(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// withScope attaches a new oscilloscope to spec through Spec.Observers, the
// way Figure 16b and flysim attach theirs, so resultDigest can pin its
// samples. A recorder is stateful: every flight needs its own.
func withScope(spec scenario.Spec) (scenario.Spec, *trace.Recorder) {
	osc := trace.NewOscilloscope(spec.Seed)
	n := len(spec.Observers)
	spec.Observers = append(spec.Observers[:n:n], func(a *autopilot.Autopilot, _ float64) {
		osc.Observe(a.Time(), a.TotalPowerW())
	})
	return spec, osc
}

// runScoped flies spec with an oscilloscope attached and returns its digest.
func runScoped(t *testing.T, spec scenario.Spec) string {
	t.Helper()
	spec, osc := withScope(spec)
	res, err := scenario.Run(spec)
	return resultDigest(t, res, err, osc)
}

// resultDigest hashes everything the determinism contract pins: the
// trajectory, the flight log (entries and events), the samples of the
// oscilloscope withScope attached, and the Equation-7 energy ledger — all at
// full float-bit fidelity.
func resultDigest(t *testing.T, res *scenario.Result, err error, osc *trace.Recorder) string {
	t.Helper()
	if err != nil {
		t.Fatalf("flight failed: %v", err)
	}
	h := sha256.New()
	putBits(h, res.FlightTimeS, res.EnergyWh, res.ComputeWh, res.MaxEstErrM)
	if res.TakeoffOK {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	h.Write([]byte(res.FinalMode.String()))
	h.Write([]byte(res.LastEvent))
	for _, p := range res.Trajectory.All() {
		putBits(h, p.X, p.Y, p.Z)
	}
	for _, e := range res.Log.Entries().All() {
		putBits(h, e.TimeS, e.PosX, e.PosY, e.Alt, e.Speed,
			e.Roll, e.Pitch, e.Yaw, e.PowerW, e.BatterySoC)
		h.Write([]byte(e.Mode.String()))
	}
	for _, e := range res.Log.Events() {
		putBits(h, e.TimeS)
		h.Write([]byte(e.Text))
	}
	for _, s := range osc.Samples() {
		putBits(h, s.TimeS, s.PowerW)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBatchSerialBitIdentity is ISSUE 6's hard requirement: the same Spec +
// seed must produce a bit-identical Result whether run serially, as one lane
// of a small or large batch, or at any parallelx pool size.
func TestBatchSerialBitIdentity(t *testing.T) {
	specs := identitySpecs()
	want := make([]string, len(specs))
	for i, spec := range specs {
		want[i] = runScoped(t, spec)
	}

	prev := parallelx.PoolSize()
	defer parallelx.SetPoolSize(prev)
	for _, pool := range []int{1, 2, 8} {
		parallelx.SetPoolSize(pool)
		for _, batchSize := range []int{1, 8, 64} {
			// Fill the batch by cycling the spec fleet; every lane must
			// reproduce its spec's serial digest.
			lanes := make([]scenario.Spec, batchSize)
			scopes := make([]*trace.Recorder, batchSize)
			fresh := identitySpecs()
			for i := range lanes {
				lanes[i], scopes[i] = withScope(fresh[i%len(fresh)])
			}
			results, errs := scenario.RunBatch(lanes)
			for i := range lanes {
				got := resultDigest(t, results[i], errs[i], scopes[i])
				if got != want[i%len(specs)] {
					t.Fatalf("pool %d batch %d lane %d (seed %d): result diverged from serial run",
						pool, batchSize, i, lanes[i].Seed)
				}
			}
		}
	}
}

// TestBatchTickGranularityInvariance pins that the interleaving granularity
// (one tick at a time vs the Run stride) is unobservable in lane results.
func TestBatchTickGranularityInvariance(t *testing.T) {
	spec := scenario.Spec{Seed: 31, Workload: mission.Hover{}, MaxSeconds: 2}
	want := runScoped(t, spec)

	lane, osc := withScope(spec)
	b := scenario.NewBatch([]scenario.Spec{lane})
	b.Start()
	for b.TickN(1) > 0 {
	}
	results, errs := b.Outcomes()
	if got := resultDigest(t, results[0], errs[0], osc); got != want {
		t.Fatal("tick-at-a-time batch diverged from serial run")
	}
}

// TestBatchLaneErrorIsolation: a lane whose Build fails finishes with its
// error recorded and must not poison its co-tenants' results.
func TestBatchLaneErrorIsolation(t *testing.T) {
	good := scenario.Spec{Seed: 41, Workload: mission.Hover{}, MaxSeconds: 2}
	want := runScoped(t, good)

	badQuad := sim.DefaultConfig()
	badQuad.TWR = 0.5 // below the flying minimum: Build must fail
	lane0, osc0 := withScope(good)
	lane2, osc2 := withScope(good)
	results, errs := scenario.RunBatch([]scenario.Spec{lane0, {Seed: 42, Quad: &badQuad}, lane2})
	if errs[1] == nil || results[1] != nil {
		t.Fatal("bad lane did not report its build error")
	}
	for i, osc := range map[int]*trace.Recorder{0: osc0, 2: osc2} {
		if got := resultDigest(t, results[i], errs[i], osc); got != want {
			t.Fatalf("lane %d diverged next to a failed lane", i)
		}
	}
}

// TestBatchAdmitMidFlightBitIdentity is the fleetd admission contract: a
// lane admitted into an already-flying batch — including into a slot freed
// by eviction — produces the same bit-identical Result as a solo run. The
// batch starts empty, the way a fleet server builds it.
func TestBatchAdmitMidFlightBitIdentity(t *testing.T) {
	specs := []scenario.Spec{
		{Seed: 61, Workload: mission.Hover{}, MaxSeconds: 2},
		{Seed: 62, Workload: mission.Hover{}, MaxSeconds: 3, Wind: scenario.Wind{MeanMS: 4, GustMS: 2}},
		{Seed: 63, MaxSeconds: 20},
	}
	want := make([]string, len(specs))
	for i, spec := range specs {
		want[i] = runScoped(t, spec)
	}

	scopes := make([]*trace.Recorder, len(specs))
	build := func(i int) *scenario.Stack {
		var spec scenario.Spec
		spec, scopes[i] = withScope(specs[i])
		st, err := scenario.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	b := scenario.NewBatch(nil)
	lane0 := b.Admit(build(0))
	b.Start()
	// Fly lane 0 alone for a while, then admit lane 1 mid-flight.
	for i := 0; i < 3000; i++ {
		b.TickN(1)
	}
	lane1 := b.Admit(build(1))
	if steps := b.TickN(1); steps != 2 {
		t.Fatalf("a tick after mid-flight admission took %d steps, want 2 (both lanes flying)", steps)
	}

	// Run until lane 0 finishes, evict it, and admit lane 2 into the freed
	// slot while lane 1 is still flying.
	for !b.LaneDone(lane0) {
		b.TickN(1)
	}
	res0, err0 := b.Evict(lane0)
	if got := resultDigest(t, res0, err0, scopes[0]); got != want[0] {
		t.Fatal("founding lane diverged from its solo run")
	}
	lane2 := b.Admit(build(2))
	if lane2 != lane0 {
		t.Fatalf("admission did not reuse evicted slot: got lane %d, want %d", lane2, lane0)
	}

	for b.TickN(100) > 0 {
	}
	res1, err1 := b.Evict(lane1)
	if got := resultDigest(t, res1, err1, scopes[1]); got != want[1] {
		t.Fatal("mid-flight-admitted lane diverged from its solo run")
	}
	res2, err2 := b.Evict(lane2)
	if got := resultDigest(t, res2, err2, scopes[2]); got != want[2] {
		t.Fatal("slot-reusing lane diverged from its solo run")
	}
}

// TestBatchEvictGuards pins the eviction error paths: live lanes cannot be
// evicted, slots cannot be evicted twice, and a build-failed lane's error
// is recoverable exactly once.
func TestBatchEvictGuards(t *testing.T) {
	b := scenario.NewBatch(nil)
	st, err := scenario.Build(scenario.Spec{Seed: 71, Workload: mission.Hover{}, MaxSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	lane := b.Admit(st)
	b.Start()
	b.TickN(1)
	if _, err := b.Evict(lane); err == nil {
		t.Fatal("evicted a live lane")
	}
	for b.TickN(1) > 0 {
	}
	if res, err := b.Evict(lane); err != nil || res == nil {
		t.Fatalf("evicting a finished lane: res=%v err=%v", res, err)
	}
	if _, err := b.Evict(lane); err == nil {
		t.Fatal("evicted the same lane twice")
	}

	badLane := b.Admit(nil)
	if badLane != lane {
		t.Fatalf("freed slot not reused: got %d, want %d", badLane, lane)
	}
	if res, err := b.Evict(badLane); err == nil || res != nil {
		t.Fatal("nil lane eviction must surface its admission error")
	}
}

// TestBatchAbortLane pins the service-layer kill switch: aborting a live
// lane finishes it immediately with the given reason, frees its slot for
// reuse, and leaves co-tenant lanes bit-unchanged (their flights never
// observe the abort).
func TestBatchAbortLane(t *testing.T) {
	solo, err := scenario.Run(scenario.Spec{Seed: 81, Workload: mission.Hover{}, MaxSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}

	b := scenario.NewBatch([]scenario.Spec{
		{Seed: 81, Workload: mission.Hover{}, MaxSeconds: 2},
		{Seed: 82, Workload: mission.Hover{}, MaxSeconds: 30},
	})
	b.Start()
	b.TickN(500)
	reason := errors.New("deadline exceeded")
	b.Abort(1, reason)
	if !b.LaneDone(1) {
		t.Fatal("aborted lane is not done")
	}
	if res, err := b.Evict(1); res != nil || err != reason {
		t.Fatalf("evicting aborted lane: res=%v err=%v", res, err)
	}
	b.Abort(1, reason) // aborting an evicted slot is a no-op
	if lane := b.Admit(nil); lane != 1 {
		t.Fatalf("aborted slot not reused: got lane %d", lane)
	}

	for b.TickN(1000) > 0 {
	}
	res, err := b.Evict(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlightTimeS != solo.FlightTimeS || res.EnergyWh != solo.EnergyWh {
		t.Fatal("co-tenant flight perturbed by a lane abort")
	}
	if steps := b.TickN(1); steps != 0 {
		t.Fatalf("a tick after all lanes finished took %d steps", steps)
	}
}

// TestBatchLaneSimTime pins the progress bookkeeping: sim time is 0 before
// Start, advances with ticks, and reads 0 on evicted lanes.
func TestBatchLaneSimTime(t *testing.T) {
	b := scenario.NewBatch([]scenario.Spec{{Seed: 91, Workload: mission.Hover{}, MaxSeconds: 5}})
	if tS := b.LaneSimTimeS(0); tS != 0 {
		t.Fatalf("sim time before start = %v", tS)
	}
	b.Start()
	b.TickN(1000) // 1 simulated second at 1 kHz
	if tS := b.LaneSimTimeS(0); tS <= 0.9 || tS >= 1.1 {
		t.Fatalf("sim time after 1000 ticks = %v, want ~1 s", tS)
	}
	b.Abort(0, errors.New("stop"))
	b.Evict(0)
	if tS := b.LaneSimTimeS(0); tS != 0 {
		t.Fatalf("sim time on evicted lane = %v", tS)
	}
}

// TestBatchZeroAllocSteadyState is the ISSUE 6 alloc-regression guard: once
// a batch is warmed past takeoff, advancing it must do zero steady-state
// heap allocations per step. It runs on the serial path (pool 1) — parallel
// dispatch adds only per-dispatch goroutine fan-out, amortized by TickN. One
// lane streams telemetry every step into a sink that, per the Send contract,
// does not keep the slice: encoding a burst must not allocate either.
func TestBatchZeroAllocSteadyState(t *testing.T) {
	prev := parallelx.SetPoolSize(1)
	defer parallelx.SetPoolSize(prev)
	var telemBytes int
	b := scenario.NewBatch([]scenario.Spec{
		{Seed: 51, Workload: mission.Hover{}},
		{Seed: 52},
		{Seed: 53, Wind: scenario.Wind{MeanMS: 4, GustMS: 2}},
		{Seed: 54, Telemetry: scenario.Telemetry{EverySteps: 1, Send: func(raw []byte) {
			telemBytes += len(raw)
		}}},
	})
	b.Start()
	// Warm through takeoff and into cruise so every lazy path (mode
	// transitions, first log rows) has already run.
	for i := 0; i < 10000; i++ {
		b.TickN(1)
	}
	if n := testing.AllocsPerRun(1, func() {
		for range 500 {
			b.TickN(1)
		}
	}); n != 0 {
		t.Fatalf("500 batched steps allocate %.0f objects in steady state, want 0", n)
	}
	if telemBytes == 0 {
		t.Fatal("the telemetry lane sent nothing")
	}
}
