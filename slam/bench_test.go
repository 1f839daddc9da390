package slam

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"dronedse/dataset"
	"dronedse/parallelx"
)

// The benchmarks below are BENCH_core.json's slam rows (make bench-json).
// The three front-end kernels all time the MH01 state after its first 30
// frames.

// mh01 is the benchmark sequence, generated once per test binary.
var mh01 = sync.OnceValues(func() (*dataset.Sequence, error) {
	return dataset.Generate(dataset.EuRoCSpecs()[0])
})

func benchSeq(b *testing.B) *dataset.Sequence {
	b.Helper()
	seq, err := mh01()
	if err != nil {
		b.Fatal(err)
	}
	return seq
}

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

func BenchmarkDetect(b *testing.B) {
	h := newBenchHarness(benchSeq(b), 30)
	atEachPool(b, func(b *testing.B) {
		h.Detect() // warm the detector scratch at this pool size
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Detect()
		}
	})
}

// BenchmarkMatchByProjection is serial: projection matching does not use
// the worker pool.
func BenchmarkMatchByProjection(b *testing.B) {
	h := newBenchHarness(benchSeq(b), 30)
	h.MatchByProjection() // warm the grid scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MatchByProjection()
	}
}

func BenchmarkBundleAdjustLocal(b *testing.B) {
	h := newBenchHarness(benchSeq(b), 30)
	atEachPool(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.LocalBA()
		}
	})
}

func BenchmarkRunSequence(b *testing.B) {
	seq := benchSeq(b)
	atEachPool(b, func(b *testing.B) {
		RunSequence(seq) // stock the free list with a warm sequence arena
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RunSequence(seq)
		}
	})
}
