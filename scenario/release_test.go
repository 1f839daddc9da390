package scenario_test

import (
	"testing"

	"dronedse/fleet"
	"dronedse/mission"
	"dronedse/parallelx"
	"dronedse/scenario"
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
		if res.Log != nil || res.Trace != nil || res.Trajectory != nil {
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
		res, err := scenario.Run(spec)
		want[i] = resultDigest(t, res, err)
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
		for i, spec := range specs {
			var other mission.Workload = mission.Hover{}
			if spec.Workload.Kind() == other.Kind() {
				other = mission.Box{}
			}
			longer := scenario.Spec{Seed: 900 + int64(i), Workload: other,
				MaxSeconds: float64(wantLen[i])/10 + 5}
			shorter := scenario.Spec{Seed: 950 + int64(i), Workload: other, MaxSeconds: 1}

			st, n := buildOnReleased(t, longer, spec)
			if n <= wantLen[i] {
				t.Fatalf("%s: donor flew %d samples, not longer than the flight's %d",
					spec.Workload.Kind(), n, wantLen[i])
			}
			stacks, of = append(stacks, st), append(of, i)
			st, _ = buildOnReleased(t, shorter, spec)
			stacks, of = append(stacks, st), append(of, i)
		}

		b := scenario.NewBatch(nil)
		for _, st := range stacks {
			b.Admit(st)
		}
		results, errs := b.Run()
		for lane, res := range results {
			i := of[lane]
			kind := specs[i].Workload.Kind()
			if got := resultDigest(t, res, errs[lane]); got != want[i] {
				t.Errorf("pool %d lane %d (%s): flight on released buffers diverged", pool, lane, kind)
			}
			if got := fleet.DigestResult(res); got != wantDig[i] {
				t.Errorf("pool %d lane %d (%s): job digests %+v, fresh build %+v", pool, lane, kind, got, wantDig[i])
			}
			res.Release()
		}
	}
}
