package fleet_test

import (
	"fmt"
	"runtime"
	"testing"

	"dronedse/fleet"
	"dronedse/mission"
	"dronedse/parallelx"
)

// BenchmarkAdvance is BENCH_core.json's fleet row (make bench-json).

// atEachPool runs body as one sub-benchmark per pool size of the perf
// trajectory: 1, 2, and NumCPU when larger.
func atEachPool(b *testing.B, body func(b *testing.B)) {
	pools := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		pools = append(pools, n)
	}
	for _, pool := range pools {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			defer parallelx.SetPoolSize(parallelx.SetPoolSize(pool))
			body(b)
		})
	}
}

// BenchmarkAdvance steps 256 resident hover flights through the whole
// fleetd engine path: admission bookkeeping, one batch TickN, telemetry
// publish into subscriber-less hubs. One op is one drone-step, so the delta
// against scenario's BenchmarkBatch is the multi-tenancy overhead. The
// figures are per step and not per Advance call because the hover flights'
// recordings grow by a chunk every so many calls: a per-call alloc count
// would depend on b.N.
func BenchmarkAdvance(b *testing.B) {
	const lanes, stride = 256, 100
	atEachPool(b, func(b *testing.B) {
		srv := fleet.New(fleet.Config{MaxLanes: lanes, DropArtifacts: true})
		defer srv.Shutdown()
		specs := make([]fleet.JobSpec, lanes)
		hover := &mission.WireSpec{KindName: "hover"}
		for j := range specs {
			specs[j] = fleet.JobSpec{Seed: int64(j + 1), Workload: hover, MaxSeconds: 3600}
		}
		if _, err := srv.SubmitAll(specs); err != nil {
			b.Fatal(err)
		}
		srv.Advance(10000) // through takeoff into steady hover
		if st := srv.Stats(); st.Live != lanes {
			b.Fatalf("%d of %d lanes live after warmup", st.Live, lanes)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.Advance(stride)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		steps := float64(b.N * lanes * stride)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/steps, "ns/op")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/steps, "allocs/op")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/steps, "B/op")
	})
}
