package fleet_test

import (
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"weak"

	"dronedse/fleet"
	"dronedse/groundstation"
)

// TestLaneStepsCountsStepsTaken pins Stats.LaneSteps to the physics steps
// lanes actually took: a job flown alone, whose flight ends mid-stride, adds
// exactly its flight's step count (FlightTimeS at 1 kHz), not a whole last
// stride.
func TestLaneStepsCountsStepsTaken(t *testing.T) {
	srv := fleet.New(fleet.Config{})
	ids, err := srv.SubmitAll([]fleet.JobSpec{{Seed: 5, MaxSeconds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	id := ids[0]
	drive(t, srv) // Advance(1000) strides
	res, err := srv.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(math.Round(res.FlightTimeS * 1000))
	if want%1000 == 0 {
		t.Fatalf("flight of %d steps ends on a stride boundary; the test needs one that does not", want)
	}
	if got := srv.Stats().LaneSteps; got != want {
		t.Fatalf("LaneSteps = %d, flight took %d steps", got, want)
	}
}

// TestDropArtifactsJobAllocBudget pins what one job costs a DropArtifacts
// server in heap bytes. Finished jobs release their whole flight stack —
// plant, autopilot, filters, random sources and recordings — for the next
// Build to re-initialise in place, so a one-second box job allocates only
// its bookkeeping: about 1.4 KiB, against 2.6 KiB before digests streamed
// through a reused writer, ~46 KiB when only the recordings were pooled and
// ~250 KiB before that. GC is off during the measurement so
// the pool is never drained.
func TestDropArtifactsJobAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random quarter of released buffers")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv := fleet.New(fleet.Config{DropArtifacts: true})
	fly := func(seed int64) {
		ids, err := srv.SubmitAll([]fleet.JobSpec{{Seed: seed, MaxSeconds: 1}})
		if err != nil {
			t.Fatal(err)
		}
		id := ids[0]
		drive(t, srv)
		if st, _ := srv.Job(id); st.Digests == nil {
			t.Fatalf("job %d ended %s: %s", id, st.State, st.Error)
		}
	}
	fly(1) // warm-up: its release stocks the pool

	const jobs, budgetKiB = 20, 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		fly(int64(2 + i))
	}
	runtime.ReadMemStats(&after)
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / jobs / 1024
	t.Logf("%.1f KiB allocated per job", perJob)
	if perJob > budgetKiB {
		t.Fatalf("a one-second job allocates %.1f KiB, budget %d KiB", perJob, budgetKiB)
	}
}

// TestJournaledJobAllocBudget pins the heap cost of the part of a job's
// life the fleet owns — SUBMIT journaling, the telemetry hub with one
// subscriber drained to the end, the digest and the DONE record — on top of
// the pooled flight stack TestDropArtifactsJobAllocBudget measures. A
// one-second job here allocated about 11.9 KiB while every subscriber ring
// was allocated at its full 256-slot depth, each digest took fresh sha256
// states and each append a fresh frame buffer; it now allocates about
// 4.3 KiB. TestDigestAllocs and the journal's TestAppendReusesFrameBuffer
// pin the digest and the append exactly. GC is off during the measurement
// so the pool is never drained.
func TestJournaledJobAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random quarter of released buffers")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P: sync.Pool keeps a released stack in the releasing P's private
	// slot, which another P cannot take, so a test goroutine that moved to
	// the other P while its subscriber ran would build a fresh stack.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, _, err := fleet.NewJournaled(fleet.Config{DropArtifacts: true}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	fly := func(seed int64) {
		ids, err := srv.SubmitAll([]fleet.JobSpec{{Seed: seed, MaxSeconds: 1}})
		if err != nil {
			t.Fatal(err)
		}
		id := ids[0]
		hub := srv.JobHub(id)
		sub := hub.Subscribe(0)
		streamed := make(chan error, 1)
		go func() { streamed <- groundstation.StreamTo(io.Discard, sub) }()
		drive(t, srv)
		if err := <-streamed; err != nil {
			t.Fatal(err)
		}
		hub.Unsubscribe(sub)
		if st, _ := srv.Job(id); st.Digests == nil {
			t.Fatalf("job %d ended %s: %s", id, st.State, st.Error)
		}
	}
	fly(1) // warm-up: its release stocks the pool

	const jobs, budgetKiB = 20, 6
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		fly(int64(2 + i))
	}
	runtime.ReadMemStats(&after)
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / jobs / 1024
	t.Logf("%.1f KiB allocated per job", perJob)
	if perJob > budgetKiB {
		t.Fatalf("a one-second journaled job allocates %.1f KiB, budget %d KiB", perJob, budgetKiB)
	}
	if st := srv.Stats(); st.FramesDropped != 0 {
		t.Fatalf("subscribers that keep up shed %d units", st.FramesDropped)
	}
}

// TestReleasedJobUnpinsHub pins that a DropArtifacts server's released
// flight stack does not keep the job's telemetry hub reachable: the stack
// waits in the pool for the next Build, but the sink closure that reached
// the hub went with the Spec. Once the server itself is dropped, one
// collection (which leaves pooled stacks alive) frees the hub.
func TestReleasedJobUnpinsHub(t *testing.T) {
	fly := func() weak.Pointer[groundstation.Hub] {
		srv := fleet.New(fleet.Config{DropArtifacts: true})
		ids, err := srv.SubmitAll([]fleet.JobSpec{{Seed: 9, MaxSeconds: 1}})
		if err != nil {
			t.Fatal(err)
		}
		id := ids[0]
		drive(t, srv)
		if st, _ := srv.Job(id); st.Digests == nil {
			t.Fatalf("job %d ended %s: %s", id, st.State, st.Error)
		}
		if srv.Stats().FramesPublished == 0 {
			t.Fatal("the job published no telemetry")
		}
		return weak.Make(srv.JobHub(id))
	}
	hub := fly()
	runtime.GC()
	if hub.Value() != nil {
		t.Fatal("a released job's telemetry hub is still reachable")
	}
}
