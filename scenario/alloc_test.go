package scenario

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"dronedse/mission"
	"dronedse/parallelx"
)

// TestBuildRunReleaseAllocBudget pins what one warm flight costs in heap
// bytes once its Result is released: Build re-initialises the pooled stack
// in place, so a one-second box flight allocates only its Result, workload
// driver and observer closures (about 760 B), not the ~40 KB of random
// sources and filters a fresh stack takes; the recordings' chunks come back
// from the free lists. GC is off during the measurement so the pool is never
// drained.
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

// TestColdBuildAllocBudget pins what Build costs on an emptied pool for a
// 240 s box flight: a new stack's random sources and filters, about 40 KB.
// The recordings reserve nothing; they borrow chunks as the flight flies.
func TestColdBuildAllocBudget(t *testing.T) {
	const budgetBytes = 64_000
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

// TestBuildAllocIndependentOfMaxSeconds pins that what a cold Build
// allocates does not grow with the flight's time bound: the recordings
// borrow chunks as the flight flies, so a day-long max_seconds costs Build no
// more than a minute does. The heap counters are process-wide, so each
// figure is the least of three Builds: first-use set-up and other
// goroutines can only add to it.
func TestBuildAllocIndependentOfMaxSeconds(t *testing.T) {
	coldBuild := func(wl mission.Workload, maxS float64) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			runtime.GC() // two collections empty the pool
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := Build(Spec{Seed: 1, Workload: wl, MaxSeconds: maxS})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			st.release()
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	for _, wl := range []mission.Workload{mission.Box{}, mission.Hover{}, mission.Follow{},
		mission.Coverage{}, mission.DefaultDelivery()} {
		minute, day := coldBuild(wl, 60), coldBuild(wl, 86400)
		t.Logf("%s: a cold Build allocates %d bytes at 60 s, %d at 86400 s", wl.Kind(), minute, day)
		if day > minute {
			t.Errorf("%s: a cold Build allocates %d bytes for a day-long flight, %d for a minute", wl.Kind(), day, minute)
		}
	}
}

// TestChunkEdgeZeroAlloc pins that a flight crosses a recording chunk edge
// without allocating once the chunk free lists are warm: a first batch
// flies long enough to fill two chunks of each recording and is released,
// then a second batch steps across trajectory and log sample ChunkLen
// (25.6 s) with no heap allocation. Its stacks may come fresh from the pool
// (a collection empties it); their chunk tables are sized at the first
// sample, not at the edge.
func TestChunkEdgeZeroAlloc(t *testing.T) {
	prev := parallelx.SetPoolSize(1)
	defer parallelx.SetPoolSize(prev)
	lanes := func(seed int64) []Spec {
		return []Spec{
			{Seed: seed, Workload: mission.Hover{}, MaxSeconds: 40},
			{Seed: seed + 1, Workload: mission.Hover{}, MaxSeconds: 40, Wind: Wind{MeanMS: 4, GustMS: 2}},
		}
	}
	results, errs := RunBatch(lanes(81))
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if n, m := res.Trajectory.Len(), res.Log.Entries().Len(); n <= parallelx.ChunkLen || m <= parallelx.ChunkLen {
			t.Fatalf("lane %d recorded %d trajectory and %d log samples, want more than %d", i, n, m, parallelx.ChunkLen)
		}
		res.Release()
	}

	b := NewBatch(lanes(91))
	b.Start()
	const window = 100 // steps; AllocsPerRun runs one window to warm up, then measures the next
	b.TickN(100*parallelx.ChunkLen - 2*window + 50)
	if n := testing.AllocsPerRun(1, func() { b.TickN(window) }); n != 0 {
		t.Fatalf("stepping across a chunk edge allocates %v objects, want 0", n)
	}
	for _, st := range b.lanes {
		if n, m := st.traj.Len(), st.Log.Entries().Len(); n != parallelx.ChunkLen+1 || m != parallelx.ChunkLen+1 {
			t.Fatalf("after the window the lane holds %d trajectory and %d log samples, want %d of each",
				n, m, parallelx.ChunkLen+1)
		}
	}
}
