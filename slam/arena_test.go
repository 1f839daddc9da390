package slam

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"dronedse/dataset"
)

// arenaModes are the two drivers RunSequence can take: the serial loop at
// pool 1, and the pipelined one (with its keypoint ring) at pool 2, forced
// on even where GOMAXPROCS is 1.
var arenaModes = []struct {
	name     string
	pool     int
	pipeline bool
}{
	{"serial", 1, false},
	{"pipelined", 2, true},
}

// inMode runs body under one of arenaModes.
func inMode(t *testing.T, pool int, pipeline bool, body func()) {
	t.Helper()
	prev := forcePipeline
	forcePipeline = pipeline
	defer func() { forcePipeline = prev }()
	withPool(t, pool, body)
}

// mh01Short is the 70-frame MH01 prefix the arena tests run.
func mh01Short(t *testing.T) *dataset.Sequence {
	t.Helper()
	spec := dataset.EuRoCSpecs()[0]
	spec.Frames = 70
	seq, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestRunSequenceAllocBudget pins what a warm RunSequence costs in heap
// bytes. Its arena comes off the free list already grown, so the run
// allocates only the map it builds (keyframes, map points, trajectory):
// about 8.5 KiB per frame of a 70-frame MH01 run, against the ~77 KiB a
// run that regrows its detector, tracking and BA scratch allocates. GC is
// off during the measurement so the count does not depend on when
// collections happen. The test is skipped under -race: the count is the
// same there, but the eight runs take about ten times as long, and
// TestRunSequenceArenaReuse already covers arena sharing under the race
// detector.
func TestRunSequenceAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unchanged under -race; the runs are ten times slower")
	}
	seq := mh01Short(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs, budgetPerFrame = 3, 16 << 10
	for _, m := range arenaModes {
		inMode(t, m.pool, m.pipeline, func() {
			RunSequence(seq) // warm-up: its return stocks the free list
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				RunSequence(seq)
			}
			runtime.ReadMemStats(&after)
			perFrame := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(seq.Len())
			t.Logf("%s: %.0f bytes allocated per frame", m.name, perFrame)
			if perFrame > budgetPerFrame {
				t.Errorf("%s: a warm RunSequence allocates %.0f bytes per frame, budget %d",
					m.name, perFrame, budgetPerFrame)
			}
		})
	}
}

// holdsMapPointer reports whether v reaches a non-nil *KeyFrame or
// *MapPoint, reading every slice up to its capacity: a truncated buffer
// still holds whatever its tail last pointed at.
func holdsMapPointer(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return false
		}
		if v.Type() == reflect.TypeOf((*KeyFrame)(nil)) || v.Type() == reflect.TypeOf((*MapPoint)(nil)) {
			return true
		}
		return holdsMapPointer(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if holdsMapPointer(v.Field(i)) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			v = v.Slice(0, v.Cap())
		}
		for i := 0; i < v.Len(); i++ {
			if holdsMapPointer(v.Index(i)) {
				return true
			}
		}
	}
	return false
}

// TestRunSequenceArenaReuse: an arena that already ran one sequence gives
// the same run of the next one as a fresh arena, bit for bit; a released
// arena holds no pointer into the map it helped build; and concurrent
// RunSequence calls borrow distinct arenas.
func TestRunSequenceArenaReuse(t *testing.T) {
	orbit, err := dataset.Generate(loopSpec())
	if err != nil {
		t.Fatal(err)
	}
	mh := mh01Short(t)
	for _, m := range arenaModes {
		inMode(t, m.pool, m.pipeline, func() {
			a := new(seqArena)
			prior := newSystem(orbit.Cam, a)
			prior.run(orbit)
			if !holdsMapPointer(reflect.ValueOf(a)) {
				t.Fatalf("%s: a used arena reaches no map pointer; the walk sees nothing", m.name)
			}
			putArena(a)
			if holdsMapPointer(reflect.ValueOf(a)) {
				t.Errorf("%s: a returned arena still points into the finished map", m.name)
			}

			reused := newSystem(mh.Cam, a)
			reused.run(mh)
			fresh := newSystem(mh.Cam, new(seqArena))
			fresh.run(mh)
			rr, fr := reused.result(mh), fresh.result(mh)
			if rr != fr || math.Float64bits(rr.ATE) != math.Float64bits(fr.ATE) {
				t.Errorf("%s: reused arena gives %+v, fresh arena %+v", m.name, rr, fr)
			}
			if !reflect.DeepEqual(reused.traj, fresh.traj) {
				t.Errorf("%s: reused arena's trajectory differs from a fresh arena's", m.name)
			}
			if len(reused.points) != len(fresh.points) {
				t.Errorf("%s: reused arena built %d map points, fresh %d", m.name, len(reused.points), len(fresh.points))
			}

			// Two runs at once: sharing an arena would corrupt both results
			// and trip the race detector.
			want := RunSequence(mh)
			var wg sync.WaitGroup
			got := make([]Result, 2)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = RunSequence(mh)
				}()
			}
			wg.Wait()
			for i, r := range got {
				if r != want {
					t.Errorf("%s: concurrent run %d gives %+v, want %+v", m.name, i, r, want)
				}
			}

			var free []*seqArena
			for a, ok := arenas.Get(); ok; a, ok = arenas.Get() {
				free = append(free, a)
			}
			for i, a := range free {
				if holdsMapPointer(reflect.ValueOf(a)) {
					t.Errorf("%s: free arena %d still points into a finished map", m.name, i)
				}
				arenas.Put(a)
			}
		})
	}
}
