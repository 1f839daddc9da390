package scenario

import (
	"runtime"
	"runtime/debug"
	"testing"

	"dronedse/mission"
)

// TestBuildRunReleaseAllocBudget pins what one warm flight costs in heap
// bytes once its Result is released: Build re-initialises the pooled stack
// in place, so a one-second box flight allocates only its Result, workload
// driver and observer closures (about 760 B), not the ~148 KB of random
// sources, filters and worst-case recordings a fresh stack takes. GC is off
// during the measurement so the pool is never drained.
func TestBuildRunReleaseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random quarter of released stacks")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fly := func(seed int64) {
		res, err := Run(Spec{Seed: seed, MaxSeconds: 1})
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	fly(1) // warm-up: its release stocks the pool

	const cycles, budgetBytes = 20, 1200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		fly(int64(2 + i))
	}
	runtime.ReadMemStats(&after)
	perCycle := float64(after.TotalAlloc-before.TotalAlloc) / cycles
	t.Logf("%.0f bytes allocated per Build → Run → Release", perCycle)
	if perCycle > budgetBytes {
		t.Fatalf("a warm one-second flight allocates %.0f bytes, budget %d", perCycle, budgetBytes)
	}
}

// BenchmarkBuild times Build alone: fresh builds every stack from scratch,
// reused re-initialises the one stack each iteration releases back to the
// pool.
func BenchmarkBuild(b *testing.B) {
	spec := Spec{Seed: 1, Workload: mission.Box{}, MaxSeconds: 1}
	b.Run("fresh", func(b *testing.B) {
		runtime.GC() // two collections empty the pool
		runtime.GC()
		b.ReportAllocs()
		for b.Loop() {
			if _, err := Build(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		if st, err := Build(spec); err == nil {
			st.release() // stock the pool
		}
		b.ReportAllocs()
		for b.Loop() {
			st, err := Build(spec)
			if err != nil {
				b.Fatal(err)
			}
			st.release()
		}
	})
}

// TestColdBuildAllocBudget pins what Build costs on an emptied pool: a new
// stack's random sources, filters and worst-case recording reservations for
// a 240 s box flight. With an oscilloscope recorder built into every stack
// (sized for the whole horizon) it was about 694 KB; with the oscilloscope
// left to the flights that attach one through Spec.Observers it is about
// 419 KB.
func TestColdBuildAllocBudget(t *testing.T) {
	const budgetBytes = 520_000
	spec := Spec{Seed: 1, Workload: mission.Box{}, MaxSeconds: 240}
	runtime.GC() // two collections empty the pool
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := Build(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer st.release()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a cold Build allocates %d bytes", got)
	if got > budgetBytes {
		t.Fatalf("a cold 240 s Build allocates %d bytes, budget %d", got, budgetBytes)
	}
}
