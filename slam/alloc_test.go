package slam

import (
	"testing"

	"dronedse/dataset"
	"dronedse/parallelx"
)

// TestKernelAllocsPoolIndependent is the alloc half of the pool-invariance
// contract: the steady-state allocations of the SLAM kernels must not grow
// with the worker-pool size. The parallelx arenas are pooled per worker, so
// once each pool size's scratch is warm, detection and local BA allocate
// the same handful of objects whether one worker runs or eight — a kernel
// whose allocs scale with the pool has leaked per-dispatch garbage into the
// steady state (the regression this PR fixed: detect was 5→32 and local BA
// 206→308 allocs going from pool 1 to pool 8).
func TestKernelAllocsPoolIndependent(t *testing.T) {
	seq, err := dataset.Generate(dataset.EuRoCSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}

	kernels := []struct {
		name string
		run  func(h *benchHarness)
		// slack absorbs runtime noise (map growth inside pooled scratch,
		// one-off sync.Pool refills) without letting per-dispatch garbage
		// through: the fixed regressions were +27 and +102 allocs.
		slack float64
	}{
		{"detect", func(h *benchHarness) { h.Detect() }, 2},
		{"match_projection", func(h *benchHarness) { h.MatchByProjection() }, 2},
		{"local_ba", func(h *benchHarness) { h.LocalBA() }, 10},
	}

	measure := func(pool int, k func(h *benchHarness)) float64 {
		prev := parallelx.SetPoolSize(pool)
		defer parallelx.SetPoolSize(prev)
		h := newBenchHarness(seq, 30)
		k(h) // warm this pool size's worker scratch
		return testing.AllocsPerRun(5, func() { k(h) })
	}

	for _, k := range kernels {
		base := measure(1, k.run)
		for _, pool := range []int{2, 8} {
			got := measure(pool, k.run)
			if got > base+k.slack {
				t.Errorf("%s: %.0f allocs/op at pool %d vs %.0f at pool 1 (slack %.0f) — per-dispatch allocation leaked into the steady state",
					k.name, got, pool, base, k.slack)
			}
		}
	}
}
