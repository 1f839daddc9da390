package dataset

import (
	"testing"

	"dronedse/mathx"
)

func TestEuRoCSpecs(t *testing.T) {
	specs := EuRoCSpecs()
	if len(specs) != 11 {
		t.Fatalf("sequences = %d, want Figure 17's 11", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate sequence %s", s.Name)
		}
		names[s.Name] = true
		if s.FPS != 20 {
			t.Errorf("%s: FPS = %v, EuRoC cameras run at 20", s.Name, s.FPS)
		}
		if s.Frames <= 0 || s.Landmarks <= 0 {
			t.Errorf("%s: degenerate spec", s.Name)
		}
	}
	for _, want := range []string{"MH01", "MH05", "V101", "V203"} {
		if !names[want] {
			t.Errorf("missing sequence %s", want)
		}
	}
}

func TestDifficultyKnobs(t *testing.T) {
	specs := EuRoCSpecs()
	byName := map[string]Spec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	// Difficult sequences fly faster with less texture (like EuRoC).
	if byName["MH05"].SpeedMS <= byName["MH01"].SpeedMS {
		t.Error("difficult MH05 not faster than easy MH01")
	}
	if byName["MH05"].Landmarks >= byName["MH01"].Landmarks {
		t.Error("difficult MH05 not sparser than easy MH01")
	}
	if byName["MH01"].Difficulty != Easy || byName["V203"].Difficulty != Difficult {
		t.Error("difficulty labels wrong")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Spec{}); err == nil {
		t.Error("zero spec accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := EuRoCSpecs()[0]
	spec.Frames = 5
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(spec)
	for i := 0; i < a.Len(); i++ {
		fa, fb := a.Frame(i), b.Frame(i)
		if fa.TruePos != fb.TruePos {
			t.Fatal("trajectories diverge between same-seed runs")
		}
		for j := range fa.Image {
			if fa.Image[j] != fb.Image[j] {
				t.Fatalf("frame %d pixel %d differs", i, j)
			}
		}
	}
}

func TestFrameShape(t *testing.T) {
	spec := EuRoCSpecs()[0]
	spec.Frames = 3
	seq, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cam := seq.Cam
	f := seq.Frame(0)
	if len(f.Image) != cam.Width*cam.Height {
		t.Fatalf("image size %d != %d", len(f.Image), cam.Width*cam.Height)
	}
	if len(f.Depth) != cam.Width*cam.Height {
		t.Fatal("depth map size mismatch")
	}
	// Depth exists only where landmarks were stamped, and is physical.
	withDepth := 0
	for _, d := range f.Depth {
		if d < 0 {
			t.Fatal("negative depth")
		}
		if d > 0 {
			withDepth++
			if d < 0.5 || d > 60 {
				t.Fatalf("depth %v outside the hall", d)
			}
		}
	}
	if withDepth == 0 {
		t.Fatal("no stereo depth anywhere")
	}
	if withDepth > len(f.Depth)/2 {
		t.Error("depth suspiciously dense; stereo only matches texture")
	}
}

// visibleLandmarks counts the landmarks projecting into the camera at frame
// i's true pose.
func visibleLandmarks(s *Sequence, i int) int {
	f := s.frames[i]
	n := 0
	for _, lw := range s.LandmarksW {
		if _, _, ok := s.Cam.Project(f.TrueAtt.RotateInv(lw.Sub(f.TruePos))); ok {
			n++
		}
	}
	return n
}

func TestVisibility(t *testing.T) {
	spec := EuRoCSpecs()[0]
	spec.Frames = 10
	seq, _ := Generate(spec)
	for i := 0; i < seq.Len(); i++ {
		if n := visibleLandmarks(seq, i); n < 50 {
			t.Errorf("frame %d: only %d landmarks visible; SLAM needs texture", i, n)
		}
	}
}

func TestTextureDensityTracksDifficulty(t *testing.T) {
	easy, _ := Generate(Spec{Name: "e", Difficulty: Easy, Frames: 3, FPS: 20,
		Landmarks: 900, SpeedMS: 0.7, RoomHalfM: 8, Seed: 1})
	hard, _ := Generate(Spec{Name: "h", Difficulty: Difficult, Frames: 3, FPS: 20,
		Landmarks: 500, SpeedMS: 2.4, RoomHalfM: 8, Seed: 1})
	if visibleLandmarks(easy, 0) <= visibleLandmarks(hard, 0) {
		t.Error("easy sequence should see more landmarks")
	}
}

func TestCameraProject(t *testing.T) {
	cam := DefaultCamera()
	u, v, ok := cam.Project(mathx.V3(0, 0, 5))
	if !ok || u != cam.Cx || v != cam.Cy {
		t.Errorf("on-axis projection = (%v,%v,%v)", u, v, ok)
	}
	if _, _, ok := cam.Project(mathx.V3(0, 0, -1)); ok {
		t.Error("behind-camera point projected")
	}
	if _, _, ok := cam.Project(mathx.V3(100, 0, 1)); ok {
		t.Error("out-of-frame point projected")
	}
}

func TestTrajectoryInsideRoom(t *testing.T) {
	spec := EuRoCSpecs()[4] // MH05, fastest MH
	seq, _ := Generate(spec)
	for i := 0; i < seq.Len(); i++ {
		p := seq.Frame(i).TruePos
		if p.Norm() > spec.RoomHalfM*1.5 {
			t.Fatalf("frame %d escaped the hall: %v", i, p)
		}
	}
}

func TestDifficultyString(t *testing.T) {
	if Easy.String() != "easy" || Medium.String() != "medium" || Difficult.String() != "difficult" {
		t.Error("difficulty strings wrong")
	}
}
