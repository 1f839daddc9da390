package fleet_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dronedse/fleet"
	"dronedse/fleet/journal"
)

// Crash-safety property tests. The central claim: a fleetd with a journal
// can be killed at any moment and, after restart, every accepted job still
// reaches a terminal state with digests bit-identical to an uninterrupted
// run — because recovery is deterministic replay, not snapshotting. A
// "crash" here is simulated the way SIGKILL actually leaves things: the
// server object is abandoned mid-campaign (never shut down, journal never
// closed cleanly) and a fresh server reopens the same journal directory.
// Real SIGKILL against a live fleetd process is covered by
// scripts/fleet_chaos.sh; the narrow in-protocol windows are covered by the
// -tags failpoint tests.

// baselineDigests runs specs on a journal-less server and returns the
// per-job-ID digest table — the ground truth every crashed-and-recovered
// run must reproduce exactly. IDs are 1..n in both runs because submission
// order assigns them.
func baselineDigests(t *testing.T, cfg fleet.Config, specs []fleet.JobSpec) map[uint64]fleet.Digests {
	t.Helper()
	srv := fleet.New(cfg)
	ids, err := srv.SubmitAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, srv)
	return digestTable(t, srv, ids)
}

// digestTable collects digests for the given jobs, failing on any
// unfinished or digest-less job.
func digestTable(t *testing.T, srv *fleet.Server, ids []uint64) map[uint64]fleet.Digests {
	t.Helper()
	out := map[uint64]fleet.Digests{}
	for _, id := range ids {
		st, ok := srv.Job(id)
		if !ok || st.Digests == nil {
			t.Fatalf("job %d unfinished: state %q err %q", id, st.State, st.Error)
		}
		out[id] = *st.Digests
	}
	return out
}

func requireSameDigests(t *testing.T, want, got map[uint64]fleet.Digests) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("digest tables differ in size: want %d, got %d", len(want), len(got))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("job %d: digests diverged after crash recovery", id)
		}
	}
}

// advanceUntilCompleted steps the engine between whole advances until at
// least n jobs are done — the "mid-campaign" crash point with completed,
// flying and queued jobs all present.
func advanceUntilCompleted(t *testing.T, srv *fleet.Server, n int) fleet.Stats {
	t.Helper()
	for i := 0; ; i++ {
		if st := srv.Stats(); st.Completed >= n {
			return st
		}
		if i > 100000 {
			t.Fatalf("engine never completed %d jobs", n)
		}
		srv.Advance(2000)
	}
}

// TestCrashRecoveryBitIdentity is the acceptance property: kill a journaled
// server mid-campaign — some jobs done, some flying, some queued — restart
// on the same journal, and every job finishes with digests bit-identical to
// a run that was never interrupted. Completed jobs are not re-flown: their
// digests come straight off the journal.
func TestCrashRecoveryBitIdentity(t *testing.T) {
	cfg := fleet.Config{MaxLanes: 4}
	specs := coTenants(16, 900)
	want := baselineDigests(t, cfg, specs)

	dir := t.TempDir()
	srv, rec, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(rec.Jobs))
	}
	ids, err := srv.SubmitAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	atCrash := advanceUntilCompleted(t, srv, 3)
	if atCrash.Completed >= len(specs) {
		t.Fatalf("campaign finished (%d jobs) before the crash point", atCrash.Completed)
	}
	// SIGKILL: abandon srv. It never advances, shuts down, or closes its
	// journal again.

	srv2, rec2, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Completed != atCrash.Completed {
		t.Fatalf("replay recovered %d completed jobs, crash-time stats said %d",
			rec2.Completed, atCrash.Completed)
	}
	if got, wantN := rec2.Readmitted, len(specs)-atCrash.Completed-atCrash.Failed; got != wantN {
		t.Fatalf("replay re-admitted %d jobs, want %d", got, wantN)
	}
	drive(t, srv2)
	st := srv2.Stats()
	if st.Completed != len(specs) || st.Failed != 0 {
		t.Fatalf("after recovery: completed=%d failed=%d, want %d/0",
			st.Completed, st.Failed, len(specs))
	}
	requireSameDigests(t, want, digestTable(t, srv2, ids))
}

// TestJournalHarvestOrderDeterministic: lanes that finish in the same
// advance are harvested — and their DONE records journaled — in lane order,
// so two servers fed the same campaign in lockstep write byte-identical
// journals. The 48 co-tenants repeat every spec once, so twin lanes finish
// together in every harvest that completes one of them.
func TestJournalHarvestOrderDeterministic(t *testing.T) {
	specs := coTenants(48, 300)
	var wals [2][]byte
	for i := range wals {
		dir := t.TempDir()
		srv, _, err := fleet.NewJournaled(fleet.Config{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.SubmitAll(specs); err != nil {
			t.Fatal(err)
		}
		drive(t, srv)
		srv.Shutdown()
		if wals[i], err = os.ReadFile(filepath.Join(dir, fleet.JournalFile)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(wals[0], wals[1]) {
		t.Fatal("same campaign in lockstep wrote different journals")
	}
}

// TestJobStatusSameFromEverySource: a finished job's status comes from its
// summary alone, so GET /jobs/{id} serves the same bytes whether the server
// kept the job's artifacts, dropped them, or recovered the job from its
// journal.
func TestJobStatusSameFromEverySource(t *testing.T) {
	spec := fleet.JobSpec{Seed: 5, MaxSeconds: 20}
	status := func(name string, srv *fleet.Server, id uint64) []byte {
		t.Helper()
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", fmt.Sprintf("/jobs/%d", id), nil))
		if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"state":"done"`) {
			t.Fatalf("%s: GET /jobs/%d = %d %s", name, id, rr.Code, rr.Body)
		}
		return rr.Body.Bytes()
	}
	run := func(srv *fleet.Server) uint64 {
		t.Helper()
		id, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, srv)
		return id
	}

	dir := t.TempDir()
	kept, _, err := fleet.NewJournaled(fleet.Config{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	id := run(kept)
	want := status("artifacts kept", kept, id)
	kept.Shutdown()

	lite := fleet.New(fleet.Config{DropArtifacts: true})
	defer lite.Shutdown()
	if got := status("artifacts dropped", lite, run(lite)); !bytes.Equal(got, want) {
		t.Fatalf("DropArtifacts status %s, want %s", got, want)
	}

	recovered, _, err := fleet.NewJournaled(fleet.Config{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Shutdown()
	if got := status("recovered", recovered, id); !bytes.Equal(got, want) {
		t.Fatalf("recovered status %s, want %s", got, want)
	}
}

// TestRestartTwiceReplayIdempotency crashes the same campaign twice at
// different points, finishes on the third incarnation, then reopens the
// journal twice more: replay must be idempotent — no duplicate terminals,
// no re-admissions once everything is done, and the recovered digest table
// (served without re-running anything) still matches the uninterrupted
// baseline.
func TestRestartTwiceReplayIdempotency(t *testing.T) {
	cfg := fleet.Config{MaxLanes: 2}
	specs := coTenants(8, 770)
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
	advanceUntilCompleted(t, s1, 2) // crash #1

	s2, _, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	advanceUntilCompleted(t, s2, 5) // crash #2

	s3, _, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s3)
	requireSameDigests(t, want, digestTable(t, s3, ids))
	s3.Shutdown()

	s4, rec4, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec4.Readmitted != 0 || rec4.Completed != len(specs) || rec4.DupTerminal != 0 {
		t.Fatalf("replay of a finished journal not idempotent: %+v", rec4)
	}
	// No jobs re-ran here: these digests were read back off the journal.
	requireSameDigests(t, want, digestTable(t, s4, ids))
	s5, rec5, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec5.Readmitted != rec4.Readmitted || rec5.Completed != rec4.Completed {
		t.Fatalf("second replay disagreed with first: %+v vs %+v", rec5, rec4)
	}
	s4.Shutdown()
	s5.Shutdown()
}

// TestSubmitDurableBeforeAck: jobs whose submission was acknowledged are
// durable even if the process dies before the engine ever advances.
func TestSubmitDurableBeforeAck(t *testing.T) {
	cfg := fleet.Config{MaxLanes: 4}
	specs := coTenants(6, 410)
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
	// Crash with zero engine progress.

	s2, rec, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Readmitted != len(specs) {
		t.Fatalf("re-admitted %d jobs, want all %d", rec.Readmitted, len(specs))
	}
	drive(t, s2)
	requireSameDigests(t, want, digestTable(t, s2, ids))
}

// TestTornTerminalRecordReadmitsJob: a DONE record half-written at the
// moment of death is truncated on replay, and the affected job simply
// re-flies to the same digests. Torn-tail handling at every byte offset is
// pinned in the journal package; this covers the fleet-level consequence.
func TestTornTerminalRecordReadmitsJob(t *testing.T) {
	cfg := fleet.Config{MaxLanes: 2}
	specs := coTenants(2, 640)
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
	drive(t, s1)
	s1.Shutdown()

	path := filepath.Join(dir, fleet.JournalFile)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("torn tail not detected")
	}
	if rec.Completed != 1 || rec.Readmitted != 1 {
		t.Fatalf("recovered %d done + %d readmitted, want 1 + 1", rec.Completed, rec.Readmitted)
	}
	drive(t, s2)
	requireSameDigests(t, want, digestTable(t, s2, ids))
}

// TestReplayToleratesDupAndOrphanTerminals hand-crafts a journal no healthy
// writer produces — duplicate DONE/CANCEL records for one job, a terminal
// record for a job whose SUBMIT is gone — and requires replay to absorb it:
// first terminal wins, the rest are counted, nothing fails recovery.
func TestReplayToleratesDupAndOrphanTerminals(t *testing.T) {
	dir := t.TempDir()
	jl, _, _, err := journal.Open(filepath.Join(dir, fleet.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	spec := fleet.JobSpec{Seed: 5, Workload: hover, MaxSeconds: 2}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		kind    byte
		payload string
	}{
		{fleet.WalSubmitKind, fmt.Sprintf(`{"id":1,"spec":%s}`, specJSON)},
		{fleet.WalDoneKind, `{"id":1,"err":"boom"}`},
		{fleet.WalDoneKind, `{"id":1}`},                   // duplicate DONE
		{fleet.WalCancelKind, `{"id":1,"reason":"late"}`}, // duplicate CANCEL
		{fleet.WalDoneKind, `{"id":9,"err":"ghost"}`},     // orphaned terminal
	} {
		if err := jl.Append(r.kind, []byte(r.payload)); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	srv, rec, err := fleet.NewJournaled(fleet.Config{MaxLanes: 2}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DupTerminal != 2 || rec.OrphanTerminal != 1 {
		t.Fatalf("dup=%d orphan=%d, want 2/1", rec.DupTerminal, rec.OrphanTerminal)
	}
	if rec.Failed != 1 || rec.Readmitted != 0 {
		t.Fatalf("failed=%d readmitted=%d, want 1/0", rec.Failed, rec.Readmitted)
	}
	st, ok := srv.Job(1)
	if !ok || st.State != "failed" || st.Error != "boom" {
		t.Fatalf("job 1 after replay: %+v", st)
	}
	// ID allocation resumes past the highest journaled SUBMIT, not the
	// orphan's ID: the next job is 2, not 10.
	id, err := srv.Submit(spec)
	if err != nil || id != 2 {
		t.Fatalf("post-recovery submit: id=%d err=%v, want 2", id, err)
	}
	srv.Shutdown()
}

// TestDeadlineEvictsRunawayJob: a job past its wall-clock budget is aborted
// mid-flight with ErrDeadline and journaled as CANCEL — terminal, so a
// restart does not re-fly it — while co-tenants finish untouched.
func TestDeadlineEvictsRunawayJob(t *testing.T) {
	cfg := fleet.Config{MaxLanes: 2}
	dir := t.TempDir()
	srv, _, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := srv.SubmitAll([]fleet.JobSpec{
		{Seed: 1, Workload: hover, MaxSeconds: 3600, DeadlineS: 0.05}, // runaway
		{Seed: 2, Workload: hover, MaxSeconds: 2},                     // finishes fine
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, srv)
	runaway, _ := srv.Job(ids[0])
	if runaway.State != "failed" || !strings.Contains(runaway.Error, "deadline") {
		t.Fatalf("runaway job: state %q err %q, want a deadline failure", runaway.State, runaway.Error)
	}
	if st, _ := srv.Job(ids[1]); st.State != "done" || st.Digests == nil {
		t.Fatalf("co-tenant: %+v", st)
	}

	srv2, rec, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Readmitted != 0 || rec.Failed != 1 || rec.Completed != 1 {
		t.Fatalf("deadline kill not terminal across restart: %+v", rec)
	}
	srv.Shutdown()
	srv2.Shutdown()
}

// TestAdmissionQueueBound: the queue refuses whole batches beyond MaxQueue
// with ErrQueueFull, and the HTTP layer turns that into 429 + Retry-After.
func TestAdmissionQueueBound(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 2, MaxQueue: 4})
	if _, err := srv.SubmitAll(coTenants(5, 100)); !errors.Is(err, fleet.ErrQueueFull) {
		t.Fatalf("oversize batch: err=%v, want ErrQueueFull", err)
	}
	if _, err := srv.SubmitAll(coTenants(3, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitAll(coTenants(2, 100)); !errors.Is(err, fleet.ErrQueueFull) {
		t.Fatalf("overflow batch: err=%v, want ErrQueueFull", err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(coTenants(2, 100))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full POST /jobs: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	srv.Shutdown()
}

// TestHealthAndReadiness: /healthz is pure liveness; /readyz tracks the
// engine loop, drain state and shutdown.
func TestHealthAndReadiness(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before Run = %d, want 503", got)
	}
	go srv.Run()
	c := fleet.NewClient(ts.URL)
	if err := c.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("server never became ready: %v", err)
	}
	srv.Shutdown()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after shutdown = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz after shutdown = %d, want 200 while serving", got)
	}
}

// TestDrainGracefulRequeuesJournaledJobs: SIGTERM-path drain stops
// admissions, finishes in-flight lanes, loses nothing, and a restart
// completes the queued remainder bit-identically.
func TestDrainGracefulRequeuesJournaledJobs(t *testing.T) {
	cfg := fleet.Config{MaxLanes: 2}
	specs := coTenants(10, 330)
	want := baselineDigests(t, cfg, specs)
	dir := t.TempDir()

	srv, _, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	ids, err := srv.SubmitAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; srv.Stats().Completed < 1; i++ {
		if i > 10000 {
			t.Fatal("no job completed before drain")
		}
		time.Sleep(2 * time.Millisecond)
	}

	rep := srv.Drain(30 * time.Second)
	if !rep.Clean() {
		t.Fatalf("in-flight lanes did not finish within grace: %+v", rep)
	}
	if rep.Lost() != 0 {
		t.Fatalf("journaled drain lost %d jobs", rep.Lost())
	}
	if total := rep.Completed + rep.Failed + rep.Requeued; total != len(specs) {
		t.Fatalf("drain accounting: %+v covers %d of %d jobs", rep, total, len(specs))
	}
	if _, err := srv.Submit(specs[0]); !errors.Is(err, fleet.ErrShutdown) {
		t.Fatalf("submit after drain: %v, want ErrShutdown", err)
	}
	if srv.Ready() == nil {
		t.Fatal("drained server still reports ready")
	}

	srv2, rec, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Readmitted != rep.Requeued {
		t.Fatalf("restart re-admitted %d, drain requeued %d", rec.Readmitted, rep.Requeued)
	}
	drive(t, srv2)
	requireSameDigests(t, want, digestTable(t, srv2, ids))
}

// TestDrainRefusesSubmitsAndAbandonsAtGrace: while draining, submissions
// fail with ErrDraining; a lane that cannot finish within the grace period
// is abandoned but — journaled — not lost: the restart re-admits it.
func TestDrainRefusesSubmitsAndAbandonsAtGrace(t *testing.T) {
	cfg := fleet.Config{MaxLanes: 2}
	dir := t.TempDir()
	srv, _, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	// A flight long enough (1200 simulated seconds) to outlive the tiny
	// grace below on any machine.
	if _, err := srv.Submit(fleet.JobSpec{Seed: 31, Workload: hover, MaxSeconds: 1200}); err != nil {
		t.Fatal(err)
	}
	for i := 0; srv.Stats().Live == 0; i++ {
		if i > 10000 {
			t.Fatal("job never launched")
		}
		time.Sleep(time.Millisecond)
	}

	repCh := make(chan fleet.DrainReport, 1)
	go func() { repCh <- srv.Drain(100 * time.Millisecond) }()
	for i := 0; !srv.Stats().Draining; i++ {
		if i > 10000 {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := srv.Submit(fleet.JobSpec{Seed: 32, Workload: hover, MaxSeconds: 2}); !errors.Is(err, fleet.ErrDraining) {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}
	rep := <-repCh
	if rep.Abandoned != 1 {
		t.Fatalf("drain report %+v, want the long flight abandoned", rep)
	}
	if rep.Lost() != 0 {
		t.Fatal("journaled abandonment counted as lost")
	}

	_, rec, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Readmitted != 1 {
		t.Fatalf("restart re-admitted %d jobs, want the abandoned flight", rec.Readmitted)
	}
}

// TestClientRetriesBackpressure: a 429 from a full queue is absorbed by the
// client's jittered-backoff budget and the submission lands once the engine
// frees queue space.
func TestClientRetriesBackpressure(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 2, MaxQueue: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown()

	c := fleet.NewClient(ts.URL)
	c.Retry = fleet.RetryPolicy{Max: 12, Base: 5 * time.Millisecond}
	if _, err := c.Submit(coTenants(2, 210)); err != nil {
		t.Fatal(err)
	}
	// Queue is full and no engine is running: an immediate submit must burn
	// retries and still fail with a 429-mapped error.
	c0 := fleet.NewClient(ts.URL)
	if _, err := c0.Submit(coTenants(1, 210)); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("no-retry client on full queue: %v", err)
	}
	// Start the engine shortly after the retrying submit begins: admission
	// drains the queue, a later attempt succeeds.
	go func() {
		time.Sleep(25 * time.Millisecond)
		go srv.Run()
	}()
	ids, err := c.Submit(coTenants(1, 210))
	if err != nil {
		t.Fatalf("retrying submit never landed: %v", err)
	}
	if len(ids) != 1 {
		t.Fatalf("got ids %v", ids)
	}
	if _, err := c.WaitAll(60*time.Second, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverLegacyHoverJournal replays a journal written before
// JobSpec.Workload was the only way to choose a flight: job 1 is a
// "hover":true SUBMIT with its DONE, job 2 one without. The unfinished job
// must re-fly the hover flight that writer's build flew (digests pinned
// from it; the box flight under the same seed differs), and the finished
// one must come back as a hover job.
func TestRecoverLegacyHoverJournal(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy_hover.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fleet.JournalFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, rec, err := fleet.NewJournaled(fleet.Config{MaxLanes: 4}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if rec.Completed != 1 || rec.Readmitted != 1 || rec.TruncatedBytes != 0 {
		t.Fatalf("replay: %+v, want 1 completed and 1 re-admitted", rec)
	}
	drive(t, srv)

	done, ok := srv.Job(1)
	if !ok || done.State != "done" || done.Spec.Workload == nil || done.Spec.Workload.Kind() != "hover" {
		t.Fatalf("restored job 1: ok=%v state=%s workload=%+v, want a done hover job",
			ok, done.State, done.Spec.Workload)
	}
	refly, ok := srv.Job(2)
	if !ok || refly.Digests == nil {
		t.Fatalf("re-admitted job 2 unfinished: ok=%v state=%s err=%q", ok, refly.State, refly.Error)
	}
	want := fleet.Digests{
		Trajectory: "c551f7c5aa304e1326cd02d6b1a5a187735cef99999523304d0ac47a2b74fcee",
		FlightLog:  "968c70dd6d31447b4c6e7e593580ed99bbc42d3024fc7d3f88178edfb51e5ebc",
		Ledger:     "66611a6796da25c44b1b8a6b9397a8be104771c0c2da9bc61607391989a8d4a6",
	}
	if *refly.Digests != want {
		t.Fatalf("re-flown legacy hover job digests %+v, want %+v", *refly.Digests, want)
	}
}
