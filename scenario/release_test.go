package scenario_test

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"runtime"
	"testing"
	"weak"

	"dronedse/autopilot"
	"dronedse/control"
	"dronedse/estimation"
	"dronedse/faultx"
	"dronedse/fleet"
	"dronedse/mathx"
	"dronedse/mission"
	"dronedse/offload"
	"dronedse/parallelx"
	"dronedse/scenario"
	"dronedse/sensors"
	"dronedse/sim"
	"dronedse/slam"
	"dronedse/trace"
)

// buildOnReleased flies donor, releases its Result and builds spec on the
// released buffers, returning the stack and the donor's trajectory length.
// sync.Pool promises no order and, under the race detector, drops some of
// what is put into it, so it retries until Build hands back the donor's
// flight log.
func buildOnReleased(t *testing.T, donor, spec scenario.Spec) (*scenario.Stack, int) {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		res, err := scenario.Run(donor)
		if err != nil {
			t.Fatal(err)
		}
		log, n := res.Log, len(res.Trajectory)
		res.Release()
		if res.Log != nil || res.Trajectory != nil {
			t.Fatal("Release left the recording fields set")
		}
		for k := 0; k < 8; k++ {
			st, err := scenario.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			if st.Log == log {
				return st, n
			}
		}
	}
	t.Fatal("Build never reused a released flight's buffers")
	return nil, 0
}

// TestReleasedBuffersBitIdentical pins Result.Release's reuse contract: a
// flight recorded into buffers another flight released is bit-identical to
// one recorded into new buffers. Every workload kind flies on the buffers of
// a longer flight of another kind (stale rows past every length, capacity to
// spare) and of a shorter one (capacity too small, so Build falls back to a
// worst-case reservation), as lanes of one batch at pools 1 and 8. The
// reference flights are themselves checked against the pinned goldens.
func TestReleasedBuffersBitIdentical(t *testing.T) {
	specs := workloadSpecs()
	golden := readGolden(t, "testdata/workloads_golden.txt")
	want := make([]string, len(specs))
	wantDig := make([]fleet.Digests, len(specs))
	wantLen := make([]int, len(specs))
	for i, spec := range specs {
		scoped, osc := withScope(spec)
		res, err := scenario.Run(scoped)
		want[i] = resultDigest(t, res, err, osc)
		if kind := spec.Workload.Kind(); want[i] != golden[kind] {
			t.Fatalf("%s: reference flight digest %s, golden %s", kind, want[i], golden[kind])
		}
		wantDig[i] = fleet.DigestResult(res)
		wantLen[i] = len(res.Trajectory)
	}

	prev := parallelx.PoolSize()
	defer parallelx.SetPoolSize(prev)
	for _, pool := range []int{1, 8} {
		parallelx.SetPoolSize(pool)
		var stacks []*scenario.Stack
		var of []int // the spec each lane flies
		var scopes []*trace.Recorder
		for i, spec := range specs {
			var other mission.Workload = mission.Hover{}
			if spec.Workload.Kind() == other.Kind() {
				other = mission.Box{}
			}
			longer := scenario.Spec{Seed: 900 + int64(i), Workload: other,
				MaxSeconds: float64(wantLen[i])/10 + 5}
			shorter := scenario.Spec{Seed: 950 + int64(i), Workload: other, MaxSeconds: 1}

			scoped, osc := withScope(spec)
			st, n := buildOnReleased(t, longer, scoped)
			if n <= wantLen[i] {
				t.Fatalf("%s: donor flew %d samples, not longer than the flight's %d",
					spec.Workload.Kind(), n, wantLen[i])
			}
			stacks, of, scopes = append(stacks, st), append(of, i), append(scopes, osc)
			scoped, osc = withScope(spec)
			st, _ = buildOnReleased(t, shorter, scoped)
			stacks, of, scopes = append(stacks, st), append(of, i), append(scopes, osc)
		}

		b := scenario.NewBatch(nil)
		for _, st := range stacks {
			b.Admit(st)
		}
		results, errs := b.Run()
		for lane, res := range results {
			i := of[lane]
			kind := specs[i].Workload.Kind()
			if got := resultDigest(t, res, errs[lane], scopes[lane]); got != want[i] {
				t.Errorf("pool %d lane %d (%s): flight on released buffers diverged", pool, lane, kind)
			}
			if got := fleet.DigestResult(res); got != wantDig[i] {
				t.Errorf("pool %d lane %d (%s): job digests %+v, fresh build %+v", pool, lane, kind, got, wantDig[i])
			}
			res.Release()
		}
	}
}

// withParts switches every optional part of a flight on: wind, a fault
// injector with an offload session polling its radio link, the energy
// policy, telemetry into sink, a 6-cell pack and a Quad override. With on
// false it returns spec unchanged.
func withParts(t *testing.T, spec scenario.Spec, on bool, sink func([]byte)) scenario.Spec {
	t.Helper()
	if !on {
		return spec
	}
	inj, err := faultx.NewInjector(faultx.Plan{Name: "reuse", Events: []faultx.Event{
		{Kind: faultx.GPSDenial, Start: 1, Duration: 3},
		{Kind: faultx.LinkOutage, Start: 1, Duration: 2},
		{Kind: faultx.SensorStuck, Sensor: sensors.SensorBaro, Start: 0, Duration: 0.5},
		{Kind: faultx.SensorDropout, Sensor: sensors.SensorMag, Start: 0.5, Duration: 2, Prob: 0.5},
		{Kind: faultx.MotorDerate, Start: 1.5, Motor: 2, Frac: 0.9},
		{Kind: faultx.BatterySag, Start: 1, Mag: 0.3, Frac: 0.1},
		{Kind: faultx.WindGust, Start: 1, Vec: mathx.V3(1, -0.5, 0)},
	}}, spec.Seed+7)
	if err != nil {
		t.Fatal(err)
	}
	quad := sim.DefaultConfig()
	quad.MassKg, quad.TWR = 1.2, 2.3
	policy := autopilot.DefaultEnergyPolicy()
	spec.Wind = scenario.Wind{MeanMS: 3, GustMS: 1.5}
	spec.Faults = inj
	spec.Offload = &scenario.Offload{
		Session: offload.SessionConfig{
			Link: offload.WiFi5GHz(), Node: offload.GroundStationGPU(),
			W: offload.SLAMWorkload(), OnboardW: 2, OnboardG: 50,
		},
		Stats: slam.Stats{FeatureExtractionOps: 40e6, MatchingOps: 20e6, LocalBAOps: 30e6, Frames: 100},
	}
	spec.EnergyPolicy = &policy
	spec.Telemetry = scenario.Telemetry{EverySteps: 100, Send: sink}
	spec.Battery = scenario.Battery{Cells: 6}
	spec.Quad = &quad
	return spec
}

// TestReleasedStackBitIdentical pins Result.Release's whole-stack reuse
// contract: a flight built inside a stack another flight released is
// bit-identical — result digest, job digests, telemetry stream and the EKF
// and control work ledgers — to one built on a fresh stack. Every workload kind flies, with its optional
// parts both on and off, inside the stack of a flight of another kind with
// every part toggled the other way, as lanes of one batch at pools 1 and 8.
func TestReleasedStackBitIdentical(t *testing.T) {
	type flight struct {
		kind int
		on   bool
	}
	var flights []flight
	for kind := range workloadSpecs() {
		flights = append(flights, flight{kind, false}, flight{kind, true})
	}
	specOf := func(f flight, sink func([]byte)) scenario.Spec {
		return withParts(t, workloadSpecs()[f.kind], f.on, sink)
	}
	donorOf := func(f flight) scenario.Spec {
		d := workloadSpecs()[(f.kind+1)%len(workloadSpecs())]
		d.Seed += 1000
		return withParts(t, d, !f.on, func([]byte) {})
	}
	telemetry := func() (hash.Hash, func([]byte)) {
		h := sha256.New()
		return h, func(raw []byte) { h.Write(raw) }
	}

	// The reference flights fly on fresh stacks: two collections empty the
	// pool, and no reference is released before the last one is built.
	runtime.GC()
	runtime.GC()
	golden := readGolden(t, "testdata/workloads_golden.txt")
	want := make([]string, len(flights))
	wantDig := make([]fleet.Digests, len(flights))
	wantTelem := make([]string, len(flights))
	type ledgers struct {
		ekf  estimation.EKFStats
		ctrl control.CtrlStats
	}
	wantOps := make([]ledgers, len(flights))
	var refs []*scenario.Result
	for k, f := range flights {
		h, sink := telemetry()
		spec, osc := withScope(specOf(f, sink))
		res, err := scenario.Run(spec)
		want[k] = resultDigest(t, res, err, osc)
		if kind := spec.Workload.Kind(); !f.on && want[k] != golden[kind] {
			t.Fatalf("%s: reference flight digest %s, golden %s", kind, want[k], golden[kind])
		}
		wantDig[k] = fleet.DigestResult(res)
		wantTelem[k] = hex.EncodeToString(h.Sum(nil))
		wantOps[k] = ledgers{res.EKFStats, res.CtrlStats}
		if empty := sha256.Sum256(nil); f.on && (res.Fallbacks == 0 || wantTelem[k] == hex.EncodeToString(empty[:])) {
			t.Fatalf("%s: the optional parts never acted (%d fallbacks)", spec.Workload.Kind(), res.Fallbacks)
		}
		refs = append(refs, res)
	}
	for _, res := range refs {
		res.Release()
	}

	prev := parallelx.PoolSize()
	defer parallelx.SetPoolSize(prev)
	for _, pool := range []int{1, 8} {
		parallelx.SetPoolSize(pool)
		b := scenario.NewBatch(nil)
		sums := make([]hash.Hash, len(flights))
		scopes := make([]*trace.Recorder, len(flights))
		for k, f := range flights {
			h, sink := telemetry()
			spec, osc := withScope(specOf(f, sink))
			st, _ := buildOnReleased(t, donorOf(f), spec)
			sums[k], scopes[k] = h, osc
			if lane := b.Admit(st); lane != k {
				t.Fatalf("flight %d admitted as lane %d", k, lane)
			}
		}
		results, errs := b.Run()
		for k, res := range results {
			kind := workloadSpecs()[flights[k].kind].Workload.Kind()
			if got := resultDigest(t, res, errs[k], scopes[k]); got != want[k] {
				t.Errorf("pool %d %s (parts %v): flight on a released stack diverged", pool, kind, flights[k].on)
			}
			if got := fleet.DigestResult(res); got != wantDig[k] {
				t.Errorf("pool %d %s (parts %v): job digests %+v, fresh build %+v", pool, kind, flights[k].on, got, wantDig[k])
			}
			if got := hex.EncodeToString(sums[k].Sum(nil)); got != wantTelem[k] {
				t.Errorf("pool %d %s (parts %v): telemetry stream diverged", pool, kind, flights[k].on)
			}
			if got := (ledgers{res.EKFStats, res.CtrlStats}); got != wantOps[k] {
				t.Errorf("pool %d %s (parts %v): work ledgers %+v, fresh build %+v", pool, kind, flights[k].on, got, wantOps[k])
			}
			res.Release()
		}
	}
}

// TestFailedBuildKeepsPool pins that Build validates before it takes a
// pooled stack: Builds that fail on the plant, the pack, the workload or
// the offload ledger leave a released stack in the pool, and the next good
// Build flies inside it bit-identically to a fresh build.
func TestFailedBuildKeepsPool(t *testing.T) {
	spec := scenario.Spec{Seed: 61, Workload: mission.Hover{}, MaxSeconds: 2}
	runtime.GC()
	runtime.GC()
	want := runScoped(t, spec)

	badQuad := sim.DefaultConfig()
	badQuad.TWR = 0.5
	bad := []scenario.Spec{
		{Seed: 62, Quad: &badQuad},
		{Seed: 62, Battery: scenario.Battery{Cells: -1}},
		{Seed: 62, Battery: scenario.Battery{CapacityMah: -1}},
		{Seed: 62, Battery: scenario.Battery{CRating: -1}},
		{Seed: 62, Workload: mission.Coverage{WidthM: 10, HeightM: 10, SpacingM: -1}},
		{Seed: 62, Offload: &scenario.Offload{Session: offload.SessionConfig{Link: offload.LTE()}}},
	}
	for attempt := 0; attempt < 20; attempt++ {
		donor, err := scenario.Run(scenario.Spec{Seed: 63, MaxSeconds: 3, Wind: scenario.Wind{MeanMS: 5, GustMS: 2}})
		if err != nil {
			t.Fatal(err)
		}
		log := donor.Log
		donor.Release()
		for _, b := range bad {
			if _, err := scenario.Build(b); err == nil {
				t.Fatalf("Build(%+v) succeeded", b)
			}
		}
		scoped, osc := withScope(spec)
		st, err := scenario.Build(scoped)
		if err != nil {
			t.Fatal(err)
		}
		if st.Log != log {
			continue // the pool dropped the donor (it may, under the race detector)
		}
		res, err := st.Run()
		if got := resultDigest(t, res, err, osc); got != want {
			t.Fatal("flight after failed Builds diverged from a fresh build")
		}
		return
	}
	t.Fatal("the good Build never reused the released stack: a failed Build took it")
}

// TestReleasedStackPinsNoTenant pins that a pooled stack keeps nothing its
// last flight's Spec supplied reachable: after Release and one collection —
// which leaves the pooled stack itself alive — the fault injector and the
// state a user observer closes over are gone.
func TestReleasedStackPinsNoTenant(t *testing.T) {
	type observerState struct {
		steps int
		pad   [64]byte // keep it out of the tiny allocator
	}
	fly := func() (weak.Pointer[scenario.Stack], weak.Pointer[faultx.Injector], weak.Pointer[observerState]) {
		spec := withParts(t, scenario.Spec{Seed: 71, Workload: mission.Hover{}, MaxSeconds: 2}, true, func([]byte) {})
		inj := spec.Faults.(*faultx.Injector)
		obs := new(observerState)
		spec.Observers = []autopilot.StepObserver{func(*autopilot.Autopilot, float64) { obs.steps++ }}
		spec.OnPhase = func(*scenario.Stack, scenario.Phase) { obs.steps++ }
		st, err := scenario.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Run()
		if err != nil {
			t.Fatal(err)
		}
		if obs.steps == 0 {
			t.Fatal("the user observer never ran")
		}
		res.Release()
		return weak.Make(st), weak.Make(inj), weak.Make(obs)
	}
	for attempt := 0; attempt < 20; attempt++ {
		wst, winj, wobs := fly()
		runtime.GC()
		if wst.Value() == nil {
			continue // the pool dropped the stack (it may, under the race detector)
		}
		if winj.Value() != nil {
			t.Error("a pooled stack keeps the fault injector reachable")
		}
		if wobs.Value() != nil {
			t.Error("a pooled stack keeps a user observer reachable")
		}
		return
	}
	t.Fatal("the released stack never survived a collection in the pool")
}
