package slam

import (
	"math/rand"
	"testing"

	"dronedse/dataset"
)

// loopSpec builds a sequence whose trajectory closes a full orbit, ending
// where it started — the loop-closure scenario.
func loopSpec() dataset.Spec {
	return dataset.Spec{
		Name: "LOOP", Difficulty: dataset.Easy, Frames: 185, FPS: 20,
		Landmarks: 900, SpeedMS: 2.0, RoomHalfM: 8, Orbit: true, Seed: 777,
	}
}

// TestLoopClosureDetected runs the orbit sequence: by the time the drone
// returns to its starting neighborhood, the loop-closing thread must fire
// at least once and global BA must have run.
func TestLoopClosureDetected(t *testing.T) {
	seq, err := dataset.Generate(loopSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The trajectory must genuinely revisit the start.
	first := seq.Frame(0).TruePos
	last := seq.Frame(seq.Len() - 1).TruePos
	if d := last.Sub(first).Norm(); d > 1.0 {
		t.Fatalf("orbit does not close: end %.2f m from start", d)
	}
	res := RunSequence(seq)
	if res.Stats.LoopClosures == 0 {
		t.Error("no loop closure detected on a closed orbit")
	}
	if res.Stats.GlobalBAOps == 0 {
		t.Error("global BA never ran")
	}
	if res.ATE > 0.25 {
		t.Errorf("orbit ATE = %.3f m", res.ATE)
	}
}

// TestRelocalizationAfterDropout blinds the camera for several frames
// (pure-noise images, no depth): tracking starves, and on the next good
// frame the global-descriptor relocalization path must re-acquire the map
// instead of diverging.
func TestRelocalizationAfterDropout(t *testing.T) {
	spec := dataset.EuRoCSpecs()[0]
	seq, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(seq.Cam)
	r := rand.New(rand.NewSource(9))
	blind := func() dataset.Frame {
		f := dataset.Frame{
			Image: make([]uint8, seq.Cam.Width*seq.Cam.Height),
			Depth: make([]float32, seq.Cam.Width*seq.Cam.Height),
		}
		for i := range f.Image {
			f.Image[i] = uint8(20 + r.Intn(8))
		}
		return f
	}

	var worstAfter float64
	for i := 0; i < 80; i++ {
		f := seq.Frame(i)
		est := s.ProcessFrame(f)
		if i == 40 {
			// 6 blind frames mid-sequence.
			for k := 0; k < 6; k++ {
				s.ProcessFrame(blind())
			}
		}
		if i > 46 {
			// Compare relative displacement from frame 10 (removes the
			// anchor offset) truth vs estimate.
			d := est.Pos.Sub(s.traj[10].Pos).
				Sub(f.TruePos.Sub(seq.Frame(10).TruePos)).Norm()
			if d > worstAfter {
				worstAfter = d
			}
		}
	}
	if worstAfter > 0.6 {
		t.Errorf("post-dropout relative error %.2f m: relocalization failed", worstAfter)
	}
}

// TestBlindStartDoesNotPanic: a system fed only featureless frames must
// survive (no keypoints, no map) and report a sane (if useless) state.
func TestBlindStartDoesNotPanic(t *testing.T) {
	cam := dataset.DefaultCamera()
	s := NewSystem(cam)
	img := make([]uint8, cam.Width*cam.Height)
	depth := make([]float32, cam.Width*cam.Height)
	for i := 0; i < 10; i++ {
		s.ProcessFrame(dataset.Frame{Image: img, Depth: depth})
	}
	if len(s.points) != 0 {
		t.Errorf("featureless frames created %d map points", len(s.points))
	}
	if got := len(landmarks(s)); got != 0 {
		t.Errorf("landmark cloud holds %d points", got)
	}
}

func TestMapPointPositions(t *testing.T) {
	spec := dataset.EuRoCSpecs()[0]
	spec.Frames = 20
	seq, _ := dataset.Generate(spec)
	s := NewSystem(seq.Cam)
	for i := 0; i < seq.Len(); i++ {
		s.ProcessFrame(seq.Frame(i))
	}
	pts := landmarks(s)
	if len(pts) != len(s.points) {
		t.Fatalf("positions %d != map points %d", len(pts), len(s.points))
	}
	// Map points live in front of the trajectory (the landmark wall is at
	// z >= ~2.5 in the camera world).
	inFront := 0
	for _, p := range pts {
		if p.Z > 1 {
			inFront++
		}
	}
	if inFront < len(pts)*8/10 {
		t.Errorf("only %d of %d map points in front of the camera", inFront, len(pts))
	}
}
