package scenario

import (
	"fmt"
	"runtime"
	"testing"

	"dronedse/mission"
	"dronedse/parallelx"
)

// The benchmarks below and BenchmarkBuild are BENCH_core.json's scenario
// rows (make bench-json).

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

// BenchmarkRun times one whole closed-loop flight per op: build, arm, the
// workload, land. box is the reference flight every scenario-based tool
// pays for; the other three are the MAVBench-style workloads. Each run must
// complete its workload and price its companion compute in Equation 7
// flight time.
func BenchmarkRun(b *testing.B) {
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"box", Spec{Seed: 1}},
		{"coverage", Spec{Seed: 1, MaxSeconds: 120, Workload: mission.Coverage{}}},
		{"delivery", Spec{Seed: 1, MaxSeconds: 120, Workload: mission.DefaultDelivery()}},
		{"follow", Spec{Seed: 1, MaxSeconds: 120, Workload: mission.Follow{}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(c.spec)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Workload.Completed {
					b.Fatalf("%s did not complete", c.name)
				}
				if res.ComputeFlightCostMin() <= 0 {
					b.Fatalf("%s: no Equation 7 flight-time cost", c.name)
				}
			}
		})
	}
}

// BenchmarkBatch steps n reference flights in lock-step on one Batch and
// reports per-flight figures: one op is one flight. Build and arm happen
// outside the timer and outside the alloc count, so the figures are the
// steady-state stepping alone; the allocation residual is the Outcomes
// slice, amortised over the batch.
func BenchmarkBatch(b *testing.B) {
	for _, n := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			atEachPool(b, func(b *testing.B) {
				var before, after runtime.MemStats
				var mallocs, bytes uint64
				specs := make([]Spec, n)
				for j := range specs {
					specs[j] = Spec{Seed: int64(j + 1)}
				}
				b.StopTimer()
				for i := 0; i < b.N; i++ {
					bt := NewBatch(specs)
					bt.Start()
					runtime.ReadMemStats(&before)
					b.StartTimer()
					results, errs := bt.Run()
					b.StopTimer()
					runtime.ReadMemStats(&after)
					mallocs += after.Mallocs - before.Mallocs
					bytes += after.TotalAlloc - before.TotalAlloc
					for j := range errs {
						if errs[j] != nil {
							b.Fatal(errs[j])
						}
						if !results[j].Completed {
							b.Fatal("lane mission did not complete")
						}
					}
				}
				flights := float64(b.N * n)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/flights, "ns/op")
				b.ReportMetric(float64(mallocs)/flights, "allocs/op")
				b.ReportMetric(float64(bytes)/flights, "B/op")
			})
		})
	}
}
