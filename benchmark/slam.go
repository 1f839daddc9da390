package main

import (
	"fmt"
	"math"

	"dronedse/dataset"
	"dronedse/roofline"
	"dronedse/slam"
)

// slamSpecs are the slam_euroc sequences: an easy, a difficult and a
// medium EuRoC-style sweep plus the loop-closing orbit, so one pass covers
// tracking under every difficulty and the pose-graph kernel.
func slamSpecs() []dataset.Spec {
	var out []dataset.Spec
	for _, s := range dataset.EuRoCSpecs() {
		switch s.Name {
		case "MH01", "MH04", "V102":
			out = append(out, s)
		}
	}
	return append(out, roofline.LoopOrbitSpec())
}

// slamSession holds the generated sequences and the warm-up pass's results,
// which every later pass must reproduce bit for bit.
type slamSession struct {
	tr   *tracer
	seqs []*dataset.Sequence
	ref  []slam.Result
	simS float64
}

// setupSLAM generates the sequences (seeds shifted by -seed) and runs one
// warm pass.
func setupSLAM(cfg config, tr *tracer) (session, error) {
	s := &slamSession{tr: tr}
	for _, spec := range slamSpecs() {
		spec.Seed += (cfg.seed - 1) * 1000
		spec.Frames = int(cfg.scaled(float64(spec.Frames), 8))
		seq, err := dataset.Generate(spec)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
		}
		s.seqs = append(s.seqs, seq)
		s.ref = append(s.ref, slam.RunSequence(seq))
	}
	return s, nil
}

// op is one pass over every sequence. Untraced it runs slam.RunSequence,
// the pipelined path; traced it runs the same stages serially so detect
// and track can be timed apart.
func (s *slamSession) op(_, parent int) (int, error) {
	frames := 0
	var bad error
	for k, seq := range s.seqs {
		frames += seq.Len()
		s.simS += float64(seq.Len()) / seq.Spec.FPS
		if s.tr != nil {
			if st := s.serial(seq, parent); st != s.ref[k].Stats {
				bad = fmt.Errorf("%s: serial ledger %+v, want %+v", seq.Spec.Name, st, s.ref[k].Stats)
			}
			continue
		}
		if r := slam.RunSequence(seq); r != s.ref[k] {
			bad = fmt.Errorf("%s: result %+v, want %+v", seq.Spec.Name, r, s.ref[k])
		}
	}
	return frames, bad
}

// serial is RunSequence's serial driver with a span around each stage.
func (s *slamSession) serial(seq *dataset.Sequence, parent int) slam.Stats {
	sp := s.tr.begin("slam.sequence", parent)
	defer s.tr.end(sp, 0)
	sys := slam.NewSystem(seq.Cam)
	det := slam.NewDetector(&sys.Stats)
	for i := 0; i < seq.Len(); i++ {
		f := seq.Frame(i)
		d := s.tr.begin("slam.detect", sp)
		kps := det.Detect(slam.Image{W: seq.Cam.Width, H: seq.Cam.Height, Pix: f.Image})
		s.tr.end(d, 0)
		t := s.tr.begin("slam.track", sp)
		sys.ProcessFrameDetected(kps, f)
		s.tr.end(t, 0)
	}
	fin := s.tr.begin("slam.finish", sp)
	sys.Finish()
	s.tr.end(fin, 0)
	return sys.Stats
}

func (s *slamSession) finish() (outcome, error) {
	o := outcome{simS: s.simS, layers: map[string]float64{}, goldens: map[string]string{}}
	var st slam.Stats
	for _, r := range s.ref {
		o.goldens[r.Name] = fmt.Sprintf("ate=%016x %+v", math.Float64bits(r.ATE), r.Stats)
		st.FeatureExtractionOps += r.Stats.FeatureExtractionOps
		st.MatchingOps += r.Stats.MatchingOps
		st.LocalBAOps += r.Stats.LocalBAOps
		st.GlobalBAOps += r.Stats.GlobalBAOps
		st.PoseGraphOps += r.Stats.PoseGraphOps
		st.Frames += r.Stats.Frames
		st.Keyframes += r.Stats.Keyframes
		st.LoopClosures += r.Stats.LoopClosures
	}
	if f := float64(st.Frames); f > 0 {
		o.layers["slam.ops.feature_extraction_per_frame"] = float64(st.FeatureExtractionOps) / f
		o.layers["slam.ops.matching_per_frame"] = float64(st.MatchingOps) / f
		o.layers["slam.ops.local_ba_per_frame"] = float64(st.LocalBAOps) / f
		o.layers["slam.ops.global_ba_per_frame"] = float64(st.GlobalBAOps) / f
		o.layers["slam.ops.pose_graph_per_frame"] = float64(st.PoseGraphOps) / f
	}
	o.layers["slam.keyframes_per_pass"] = float64(st.Keyframes)
	o.layers["slam.loop_closures_per_pass"] = float64(st.LoopClosures)
	return o, nil
}

func (s *slamSession) close() { s.seqs, s.ref = nil, nil }
