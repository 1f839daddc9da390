package slam_test

import (
	"fmt"
	"math"
	"testing"

	"dronedse/dataset"
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

// TestBenchmarkSequenceGoldens runs each benchmark sequence through
// RunSequence and compares its result string with the golden, so ATE drift
// fails the unit suite without running the benchmark.
func TestBenchmarkSequenceGoldens(t *testing.T) {
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
	for _, spec := range specs {
		seq, err := dataset.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := slam.RunSequence(seq)
		got := fmt.Sprintf("ate=%016x %+v", math.Float64bits(r.ATE), r.Stats)
		if want := benchmarkGoldens[spec.Name]; got != want {
			t.Errorf("%s:\n got %s\nwant %s", spec.Name, got, want)
		}
	}
}
