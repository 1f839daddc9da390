package fleet_test

// Workload wire-format acceptance: every workload kind survives the full
// JSON encode → submit → flight path with digests equal to a direct
// scenario.Run, and malformed workloads are refused at admission — as
// ErrBadSpec in process, as HTTP 400 (never 500) at the front door.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dronedse/fleet"
	"dronedse/mathx"
	"dronedse/mission"
	"dronedse/scenario"
)

// workloadJobs returns one job per workload kind, each carrying its
// serializable WireSpec form, durations kept short.
func workloadJobs() []fleet.JobSpec {
	return []fleet.JobSpec{
		{Seed: 201, MaxSeconds: 20, Workload: &mission.WireSpec{KindName: "box"}},
		{Seed: 202, MaxSeconds: 2, Workload: &mission.WireSpec{KindName: "hover"}},
		{Seed: 203, MaxSeconds: 20, Workload: &mission.WireSpec{KindName: "waypoints",
			Plan: mission.BoxPlan(5)}},
		{Seed: 204, MaxSeconds: 30, Workload: &mission.WireSpec{KindName: "trajectory",
			Trajectory: &mission.Trajectory{
				Path: []mathx.Vec3{{Z: 6}, {X: 8, Y: 4, Z: 6}}, VMaxMS: 4, AMaxMS2: 2}}},
		{Seed: 205, MaxSeconds: 60, Workload: &mission.WireSpec{KindName: "coverage",
			Coverage: &mission.Coverage{WidthM: 10, HeightM: 10, SpacingM: 5}}},
		{Seed: 206, MaxSeconds: 60, Workload: &mission.WireSpec{KindName: "delivery",
			Delivery: &mission.Delivery{Legs: []mission.DeliveryLeg{
				{Pickup: mathx.V3(6, 0, 6), Dropoff: mathx.V3(6, 8, 6), PayloadKg: 0.6}}}}},
		{Seed: 207, MaxSeconds: 60, Workload: &mission.WireSpec{KindName: "follow",
			Follow: &mission.Follow{DurationS: 10}}},
	}
}

// TestWorkloadRoundTrip is the satellite-2 acceptance property: each
// workload kind, JSON-encoded and decoded as a tenant would send it, then
// submitted and flown by the server, produces digests bit-identical to a
// direct scenario.Run of the same spec.
func TestWorkloadRoundTrip(t *testing.T) {
	jobs := workloadJobs()

	// Reference digests from direct runs of the pre-encoding specs.
	want := make([]fleet.Digests, len(jobs))
	for i, j := range jobs {
		res, err := scenario.Run(j.Scenario())
		if err != nil {
			t.Fatalf("%s: direct run: %v", j.Workload.Kind(), err)
		}
		want[i] = fleet.DigestResult(res)
	}

	// Wire round trip: the decoded batch must submit and fly identically.
	raw, err := json.Marshal(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []fleet.JobSpec
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}

	srv := fleet.New(fleet.Config{Shards: 2, MaxLanes: 4})
	ids, err := srv.SubmitAll(decoded)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, srv)
	for i, id := range ids {
		st, ok := srv.Job(id)
		if !ok || st.Digests == nil {
			t.Fatalf("%s: job unfinished (state %s, err %q)",
				jobs[i].Workload.Kind(), st.State, st.Error)
		}
		if *st.Digests != want[i] {
			t.Fatalf("%s: wire round trip diverged from direct scenario.Run",
				jobs[i].Workload.Kind())
		}
	}
}

// TestSubmitValidation pins admission-time rejection: a malformed workload
// is refused as ErrBadSpec before any job in the batch is admitted, and the
// HTTP front end maps it to 400, not 500.
func TestSubmitValidation(t *testing.T) {
	badJobs := []fleet.JobSpec{
		{Seed: 1, Workload: &mission.WireSpec{KindName: "teleport"}},
		{Seed: 1, Workload: &mission.WireSpec{KindName: "delivery",
			Delivery: &mission.Delivery{}}}, // no legs
		{Seed: 1, Workload: &mission.WireSpec{KindName: "delivery",
			Delivery: &mission.Delivery{Legs: []mission.DeliveryLeg{
				{Pickup: mathx.V3(1, 0, 0), Dropoff: mathx.V3(2, 0, 5)}}}}}, // pickup on the ground
	}

	srv := fleet.New(fleet.Config{Shards: 1, MaxLanes: 4})
	for _, bad := range badJobs {
		// The bad job rides second: the whole batch must be refused with no
		// partial admission.
		ids, err := srv.SubmitAll([]fleet.JobSpec{
			{Seed: 9, Workload: hover, MaxSeconds: 2}, bad})
		if !errors.Is(err, fleet.ErrBadSpec) {
			t.Fatalf("bad workload admitted: ids=%v err=%v", ids, err)
		}
	}
	if stats := srv.Stats(); stats.Submitted != 0 {
		t.Fatalf("refused batches still admitted %d jobs", stats.Submitted)
	}

	// HTTP front door: the same malformed specs must come back as 400s.
	go srv.Run()
	defer srv.Shutdown()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	for _, bad := range badJobs {
		body, err := json.Marshal([]fleet.JobSpec{bad})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("workload %q: got HTTP %d (%s), want 400",
				bad.Workload.KindName, resp.StatusCode, bytes.TrimSpace(msg))
		}
	}

	// An unknown field is refused by name, not silently dropped: a client
	// still sending the removed "hover" flag must not fly the box instead.
	resp, err := http.Post(hs.URL+"/jobs", "application/json",
		strings.NewReader(`[{"seed":1,"hover":true,"max_seconds":2}]`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct{ Error string }
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, `"hover"`) {
		t.Fatalf("unknown field: got HTTP %d (%q), want 400 naming \"hover\"", resp.StatusCode, body.Error)
	}

	// A healthy workload batch still clears the same front door.
	c := fleet.NewClient(hs.URL)
	ids, err := c.Submit([]fleet.JobSpec{
		{Seed: 210, MaxSeconds: 2, Workload: &mission.WireSpec{KindName: "hover"}}})
	if err != nil || len(ids) != 1 {
		t.Fatalf("healthy workload refused: ids=%v err=%v", ids, err)
	}
}
