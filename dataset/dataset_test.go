package dataset

import (
	"errors"
	"math"
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

// TestGenerateValidation checks that every out-of-range field class is
// refused with its typed error before anything is rendered.
func TestGenerateValidation(t *testing.T) {
	base := Spec{Name: "v", Difficulty: Medium, Frames: 2, FPS: 20,
		Landmarks: 10, SpeedMS: 1, RoomHalfM: 8, Seed: 1}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*Spec)
		want error
	}{
		{"zero spec", func(s *Spec) { *s = Spec{} }, ErrBadCount},
		{"difficulty -2", func(s *Spec) { s.Difficulty = -2 }, ErrBadDifficulty},
		{"difficulty -1", func(s *Spec) { s.Difficulty = -1 }, ErrBadDifficulty},
		{"difficulty 3", func(s *Spec) { s.Difficulty = 3 }, ErrBadDifficulty},
		{"difficulty 60", func(s *Spec) { s.Difficulty = 60 }, ErrBadDifficulty},
		{"no frames", func(s *Spec) { s.Frames = 0 }, ErrBadCount},
		{"negative frames", func(s *Spec) { s.Frames = -3 }, ErrBadCount},
		{"one-frame orbit", func(s *Spec) { s.Orbit, s.Frames = true, 1 }, ErrBadCount},
		{"no landmarks", func(s *Spec) { s.Landmarks = 0 }, ErrBadCount},
		{"negative landmarks", func(s *Spec) { s.Landmarks = -1 }, ErrBadCount},
		{"zero FPS", func(s *Spec) { s.FPS = 0 }, ErrBadRate},
		{"FPS below 1", func(s *Spec) { s.FPS = 1e-300 }, ErrBadRate},
		{"FPS above 1000", func(s *Spec) { s.FPS = 1e4 }, ErrBadRate},
		{"negative FPS", func(s *Spec) { s.FPS = -20 }, ErrBadRate},
		{"NaN FPS", func(s *Spec) { s.FPS = nan }, ErrBadRate},
		{"+Inf FPS", func(s *Spec) { s.FPS = inf }, ErrBadRate},
		{"-Inf FPS", func(s *Spec) { s.FPS = -inf }, ErrBadRate},
		{"negative speed", func(s *Spec) { s.SpeedMS = -1 }, ErrBadGeometry},
		{"NaN speed", func(s *Spec) { s.SpeedMS = nan }, ErrBadGeometry},
		{"+Inf speed", func(s *Spec) { s.SpeedMS = inf }, ErrBadGeometry},
		{"speed above 100 m/s", func(s *Spec) { s.SpeedMS = 1e300 }, ErrBadGeometry},
		{"zero room", func(s *Spec) { s.RoomHalfM = 0 }, ErrBadGeometry},
		{"negative room", func(s *Spec) { s.RoomHalfM = -8 }, ErrBadGeometry},
		{"NaN room", func(s *Spec) { s.RoomHalfM = nan }, ErrBadGeometry},
		{"+Inf room", func(s *Spec) { s.RoomHalfM = inf }, ErrBadGeometry},
		{"room beyond 1 km", func(s *Spec) { s.RoomHalfM = 1e300 }, ErrBadGeometry},
	}
	for _, c := range cases {
		spec := base
		c.edit(&spec)
		seq, err := Generate(spec)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if seq != nil {
			t.Errorf("%s: a sequence came back with the error", c.name)
		}
	}
	for _, d := range []Difficulty{Easy, Medium, Difficult} {
		spec := base
		spec.Difficulty = d
		if _, err := Generate(spec); err != nil {
			t.Errorf("difficulty %v refused: %v", d, err)
		}
	}
	spec := base
	spec.SpeedMS, spec.Orbit = 0, true
	if _, err := Generate(spec); err != nil {
		t.Errorf("a hovering two-frame orbit refused: %v", err)
	}
}

// TestGenerateNeverPanics feeds Generate every combination of edge values
// and checks that it either refuses the spec or renders finite ground truth.
func TestGenerateNeverPanics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	floats := []float64{nan, inf, -inf, -1, 0, 1e-300, 0.5, 20, 1000, 1e300}
	for _, d := range []Difficulty{-2, -1, Easy, Difficult, 3, 60} {
		for _, frames := range []int{-1, 0, 1, 2} {
			for _, lms := range []int{-1, 0, 3} {
				for _, orbit := range []bool{false, true} {
					for _, fps := range floats {
						for _, speed := range floats {
							for _, room := range floats {
								checkGenerate(t, Spec{Difficulty: d, Frames: frames, Landmarks: lms,
									Orbit: orbit, FPS: fps, SpeedMS: speed, RoomHalfM: room})
							}
						}
					}
				}
			}
		}
	}
}

func checkGenerate(t *testing.T, spec Spec) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Generate(%+v) panicked: %v", spec, r)
		}
	}()
	seq, err := Generate(spec)
	if err != nil {
		return
	}
	finite := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	for _, lw := range seq.LandmarksW {
		if !finite(lw.X, lw.Y, lw.Z) {
			t.Fatalf("Generate(%+v): landmark %v", spec, lw)
		}
	}
	for i := range seq.Len() {
		f := seq.Frame(i)
		p, q := f.TruePos, f.TrueAtt
		if !finite(f.TimeS, p.X, p.Y, p.Z, q.W, q.X, q.Y, q.Z) {
			t.Fatalf("Generate(%+v): frame %d at t=%v pose %v %v", spec, i, f.TimeS, p, q)
		}
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
