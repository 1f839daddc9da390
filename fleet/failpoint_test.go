//go:build failpoint

package fleet_test

import (
	"testing"

	"dronedse/fleet"
)

// Crash-window tests, compiled only under -tags failpoint. Each installs a
// hook at one of the durability protocol's crash points, panics with a
// sentinel there (the in-process stand-in for dying — the server object is
// then abandoned exactly as SIGKILL would leave it), and proves the journal
// replay on a fresh server lands every job with digests bit-identical to an
// uninterrupted baseline. The same points are exercised with real process
// death by scripts/fleet_chaos.sh via FLEET_FAILPOINT.

type crashSentinel struct{ point string }

// withCrash runs fn with a one-shot panic hook at the named failpoint and
// recovers the sentinel, failing the test if the point never fired.
func withCrash(t *testing.T, point string, fn func()) {
	t.Helper()
	fired := false
	fleet.SetFailpoint(point, func() {
		fired = true
		panic(crashSentinel{point})
	})
	defer fleet.ClearFailpoints()
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashSentinel); !ok {
					panic(r)
				}
			}
		}()
		fn()
	}()
	if !fired {
		t.Fatalf("failpoint %s never fired", point)
	}
}

// TestCrashBetweenJournalAndAdmission: die after the SUBMIT fsync but
// before the jobs become visible. The ack never went out, yet the jobs are
// durable — the restart admits and flies them to baseline digests.
func TestCrashBetweenJournalAndAdmission(t *testing.T) {
	cfg := fleet.Config{MaxLanes: 4}
	specs := coTenants(4, 510)
	want := baselineDigests(t, cfg, specs)
	dir := t.TempDir()

	s1, _, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	withCrash(t, "fleet/submit-journaled", func() { s1.SubmitAll(specs) })
	if len(s1.Jobs()) != 0 {
		t.Fatal("jobs became visible before the crash point")
	}

	s2, rec, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Readmitted != len(specs) {
		t.Fatalf("re-admitted %d, want %d", rec.Readmitted, len(specs))
	}
	drive(t, s2)
	requireSameDigests(t, want, digestTable(t, s2, []uint64{1, 2, 3, 4}))
}

// TestCrashAfterHarvestBeforeDone: die after a lane is evicted but before
// its DONE record hits the journal. The outcome is lost with the process —
// the restart re-flies the job and deterministically reproduces it.
func TestCrashAfterHarvestBeforeDone(t *testing.T) {
	cfg := fleet.Config{MaxLanes: 2}
	specs := coTenants(3, 820)
	want := baselineDigests(t, cfg, specs)
	dir := t.TempDir()

	s1, _, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s1.SubmitAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	withCrash(t, "fleet/harvested", func() {
		for i := 0; i < 100000; i++ {
			s1.Advance(2000)
		}
	})

	s2, rec, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	// The harvested job died without a terminal record: everything replays.
	if rec.Readmitted != len(specs) || rec.Completed != 0 {
		t.Fatalf("recovery %+v, want all %d re-admitted", rec, len(specs))
	}
	drive(t, s2)
	requireSameDigests(t, want, digestTable(t, s2, ids))
}

// TestCrashAfterDoneBeforeVisible: die after the DONE fsync but before the
// outcome lands in memory. The journal already owns the truth — the restart
// recovers that job's digests without re-flying it, identical to baseline.
func TestCrashAfterDoneBeforeVisible(t *testing.T) {
	cfg := fleet.Config{MaxLanes: 2}
	specs := coTenants(3, 250)
	want := baselineDigests(t, cfg, specs)
	dir := t.TempDir()

	s1, _, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s1.SubmitAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	withCrash(t, "fleet/done-journaled", func() {
		for i := 0; i < 100000; i++ {
			s1.Advance(2000)
		}
	})
	if s1.Stats().Completed != 0 {
		t.Fatal("an outcome became visible before the crash point")
	}

	s2, rec, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Completed != 1 || rec.Readmitted != len(specs)-1 {
		t.Fatalf("recovery %+v, want 1 completed + %d re-admitted", rec, len(specs)-1)
	}
	drive(t, s2)
	requireSameDigests(t, want, digestTable(t, s2, ids))
}
