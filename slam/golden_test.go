package slam_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"dronedse/dataset"
	"dronedse/mathx"
	"dronedse/roofline"
	"dronedse/slam"
)

// benchmarkGoldens are the slam_euroc sequences' results at seed 1 and full
// size, as the end-to-end benchmark pins them in
// benchmark/testdata/goldens.json: the ATE's IEEE bits and the Stats ledger
// the platform models retime. Any change to the pipeline's arithmetic or to
// its work accounting shows up here.
var benchmarkGoldens = map[string]string{
	"MH01":  "ate=3f9931a5cf1c3888 {FeatureExtractionOps:145152000 MatchingOps:50769712 LocalBAOps:848100960 GlobalBAOps:428593320 PoseGraphOps:0 Frames:120 Keyframes:24 TrackedMatches:29971 LoopClosures:0}",
	"MH04":  "ate=3fb7041b5f6a85b9 {FeatureExtractionOps:108674304 MatchingOps:43721212 LocalBAOps:612778320 GlobalBAOps:253126800 PoseGraphOps:0 Frames:90 Keyframes:18 TrackedMatches:17107 LoopClosures:0}",
	"V102":  "ate=3fa0dba80fb42474 {FeatureExtractionOps:114912000 MatchingOps:43100844 LocalBAOps:667571760 GlobalBAOps:266590800 PoseGraphOps:0 Frames:95 Keyframes:19 TrackedMatches:21465 LoopClosures:0}",
	"ORBIT": "ate=3f93bec73d9deaa5 {FeatureExtractionOps:223776000 MatchingOps:88235572 LocalBAOps:1326400560 GlobalBAOps:876128400 PoseGraphOps:49896 Frames:185 Keyframes:37 TrackedMatches:40423 LoopClosures:1}",
}

// mapDigest hashes what a run leaves behind that the ATE does not show:
// the IEEE bits of every trajectory pose (position and attitude) and of
// every final landmark position, in frame and ID order.
func mapDigest(traj []slam.Pose, cloud []mathx.Vec3) string {
	h := sha256.New()
	var buf [8]byte
	f64 := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, p := range traj {
		f64(p.Pos.X, p.Pos.Y, p.Pos.Z, p.Att.W, p.Att.X, p.Att.Y, p.Att.Z)
	}
	for _, lw := range cloud {
		f64(lw.X, lw.Y, lw.Z)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestBenchmarkSequenceGoldens runs each benchmark sequence through
// RunSequence and compares its result string with the golden, so ATE drift
// fails the unit suite without running the benchmark. It also pins a
// SHA-256 of the trajectory and the landmark cloud (mapDigest) to
// testdata/sequence_golden.txt, so a change that moves an attitude or a
// landmark without moving the ATE fails too. Regenerate the digests
// deliberately with
//
//	GOLDEN_UPDATE=1 go test ./slam/ -run TestBenchmarkSequenceGoldens
func TestBenchmarkSequenceGoldens(t *testing.T) {
	const path = "testdata/sequence_golden.txt"
	var specs []dataset.Spec
	for _, s := range dataset.EuRoCSpecs() {
		if _, ok := benchmarkGoldens[s.Name]; ok {
			specs = append(specs, s)
		}
	}
	specs = append(specs, roofline.LoopOrbitSpec())
	if len(specs) != len(benchmarkGoldens) {
		t.Fatalf("found %d of the %d golden sequences", len(specs), len(benchmarkGoldens))
	}
	var lines strings.Builder
	for _, spec := range specs {
		seq, err := dataset.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, traj, cloud := slam.RunSequenceMap(seq)
		got := fmt.Sprintf("ate=%016x %+v", math.Float64bits(r.ATE), r.Stats)
		if want := benchmarkGoldens[spec.Name]; got != want {
			t.Errorf("%s:\n got %s\nwant %s", spec.Name, got, want)
		}
		fmt.Fprintf(&lines, "%s poses=%d landmarks=%d sha256=%s\n", spec.Name, len(traj), len(cloud), mapDigest(traj, cloud))
	}

	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(lines.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("rewrote " + path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := lines.String(); got != string(want) {
		t.Errorf("trajectories or landmark clouds drifted:\n%s\ngolden:\n%s", got, want)
	}
}
