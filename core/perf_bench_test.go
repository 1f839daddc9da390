package core

import (
	"fmt"
	"runtime"
	"testing"

	"dronedse/parallelx"
)

// The benchmarks below are BENCH_core.json's core rows (make bench-json).

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

func BenchmarkResolve(b *testing.B) {
	spec := DefaultSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Resolve(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepCapacity(b *testing.B) {
	spec := DefaultSpec()
	atEachPool(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pts := mustSweep(b, spec, 1000, 8000, 100); len(pts) == 0 {
				b.Fatal("empty sweep")
			}
		}
	})
}

func BenchmarkBestConfig(b *testing.B) {
	spec := DefaultSpec()
	cells := []int{1, 2, 3, 4, 5, 6}
	atEachPool(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := mustBest(b, spec, cells, 1000, 8000, 250); !ok {
				b.Fatal("no feasible config")
			}
		}
	})
}

func BenchmarkParetoPayloadFrontier(b *testing.B) {
	spec := DefaultSpec()
	payloads := []float64{0, 100, 200, 300, 500, 750, 1000}
	atEachPool(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pts := mustFrontier(b, spec, payloads); len(pts) == 0 {
				b.Fatal("empty frontier")
			}
		}
	})
}
