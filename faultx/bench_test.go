package faultx

import (
	"fmt"
	"runtime"
	"testing"

	"dronedse/mission"
	"dronedse/parallelx"
)

// BenchmarkRun is BENCH_core.json's faultx row (make bench-json).

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

// BenchmarkRun flies one campaign per op: the fault-free baseline and the
// severe compound fault, two independent closed-loop flights that scale
// with the pool. box is the reference mission over 120 s; the other three
// fly the MAVBench-style workloads over 90 s.
func BenchmarkRun(b *testing.B) {
	scenarios := []Scenario{severeScenario(1)}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"box", Config{MaxSeconds: 120}},
		{"coverage", Config{MaxSeconds: 90, Workload: mission.Coverage{}}},
		{"delivery", Config{MaxSeconds: 90, Workload: mission.DefaultDelivery()}},
		{"follow", Config{MaxSeconds: 90, Workload: mission.Follow{}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			atEachPool(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(scenarios, c.cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
