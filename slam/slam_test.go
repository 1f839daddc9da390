package slam

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dronedse/dataset"
	"dronedse/mathx"
)

func TestHammingDistance(t *testing.T) {
	var a, b Descriptor
	if HammingDistance(a, b) != 0 {
		t.Error("identical descriptors have nonzero distance")
	}
	b[0] = 0xFF
	if HammingDistance(a, b) != 8 {
		t.Errorf("distance = %d, want 8", HammingDistance(a, b))
	}
	for i := range b {
		b[i] = ^uint64(0)
	}
	if HammingDistance(a, b) != 256 {
		t.Errorf("max distance = %d, want 256", HammingDistance(a, b))
	}
}

func TestHammingMetricProperties(t *testing.T) {
	f := func(a, b Descriptor) bool {
		d := HammingDistance(a, b)
		return d == HammingDistance(b, a) && d >= 0 && d <= 256 &&
			(d == 0) == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// synthImage builds an image with textured patches at given locations.
func synthImage(w, h int, centers [][2]int, seed int64) Image {
	r := rand.New(rand.NewSource(seed))
	pix := make([]uint8, w*h)
	for i := range pix {
		pix[i] = uint8(20 + r.Intn(8))
	}
	for _, c := range centers {
		for dy := -4; dy <= 4; dy++ {
			for dx := -4; dx <= 4; dx++ {
				x, y := c[0]+dx, c[1]+dy
				if x < 0 || y < 0 || x >= w || y >= h {
					continue
				}
				pix[y*w+x] = uint8(40 + r.Intn(215))
			}
		}
	}
	return Image{W: w, H: h, Pix: pix}
}

func TestDetectorFindsTexture(t *testing.T) {
	centers := [][2]int{{30, 30}, {90, 40}, {60, 80}, {120, 100}}
	im := synthImage(160, 120, centers, 3)
	var st Stats
	d := NewDetector(&st)
	kps := d.Detect(im)
	if len(kps) < len(centers) {
		t.Fatalf("detected %d keypoints for %d patches", len(kps), len(centers))
	}
	// Every patch must have a keypoint nearby.
	for _, c := range centers {
		found := false
		for _, kp := range kps {
			if math.Hypot(kp.X-float64(c[0]), kp.Y-float64(c[1])) < 7 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no keypoint near patch at %v", c)
		}
	}
	if st.FeatureExtractionOps == 0 {
		t.Error("feature extraction did not account its work")
	}
}

func TestDetectorIgnoresFlatImage(t *testing.T) {
	pix := make([]uint8, 160*120)
	for i := range pix {
		pix[i] = 128
	}
	d := NewDetector(nil)
	if kps := d.Detect(Image{W: 160, H: 120, Pix: pix}); len(kps) != 0 {
		t.Errorf("flat image produced %d keypoints", len(kps))
	}
}

func TestDescriptorRepeatability(t *testing.T) {
	// The same texture at the same place in two different-noise images
	// must produce nearby descriptors; different textures must not.
	imA := synthImage(100, 100, [][2]int{{50, 50}}, 7)
	imB := synthImage(100, 100, [][2]int{{50, 50}}, 7) // same seed = same texture
	imC := synthImage(100, 100, [][2]int{{50, 50}}, 99)
	d := NewDetector(nil)
	kA, kB, kC := d.Detect(imA), d.Detect(imB), d.Detect(imC)
	if len(kA) == 0 || len(kB) == 0 || len(kC) == 0 {
		t.Fatal("detection failed")
	}
	same := HammingDistance(kA[0].Desc, kB[0].Desc)
	diff := HammingDistance(kA[0].Desc, kC[0].Desc)
	if same > 10 {
		t.Errorf("same texture descriptor distance = %d", same)
	}
	if diff < 60 {
		t.Errorf("different texture descriptor distance = %d, not discriminative", diff)
	}
}

func TestMatch(t *testing.T) {
	imA := synthImage(200, 100, [][2]int{{40, 50}, {120, 30}, {160, 70}}, 5)
	d := NewDetector(nil)
	kps := d.Detect(imA)
	if len(kps) < 3 {
		t.Fatal("need keypoints")
	}
	descs := make([]Descriptor, len(kps))
	for i, kp := range kps {
		descs[i] = kp.Desc
	}
	var st Stats
	matches := Match(kps, descs, 50, &st)
	if len(matches) != len(kps) {
		t.Errorf("self-match found %d of %d", len(matches), len(kps))
	}
	for _, m := range matches {
		if m[0] != m[1] {
			t.Errorf("self-match crossed: %v", m)
		}
	}
	if st.MatchingOps == 0 {
		t.Error("matching did not account its work")
	}
	if got := Match(nil, descs, 50, nil); len(got) != 0 {
		t.Error("empty query matched")
	}
}

func TestOptimizePoseConverges(t *testing.T) {
	cam := dataset.DefaultCamera()
	r := rand.New(rand.NewSource(1))
	truth := Pose{Pos: mathx.V3(1, -2, 0.5), Att: mathx.QuatFromEuler(0.05, -0.1, 0.3)}
	var pts []mathx.Vec3
	var us, vs []float64
	for len(pts) < 80 {
		pw := mathx.V3(r.Float64()*20-10, r.Float64()*10-5, 3+r.Float64()*10)
		pc := truth.WorldToCamera(pw)
		u, v, ok := cam.Project(pc)
		if !ok {
			continue
		}
		pts = append(pts, pw)
		us = append(us, u)
		vs = append(vs, v)
	}
	init := Pose{
		Pos: truth.Pos.Add(mathx.V3(0.3, 0.2, -0.1)),
		Att: truth.Att.Mul(mathx.QuatFromEuler(0.02, 0.03, -0.05)),
	}
	var st Stats
	got := optimizePose(cam, init, pts, us, vs, 10, &st, new(poseScratch))
	if got.Pos.Sub(truth.Pos).Norm() > 1e-6 {
		t.Errorf("position error %v", got.Pos.Sub(truth.Pos).Norm())
	}
	if got.Att.AngleTo(truth.Att) > 1e-6 {
		t.Errorf("attitude error %v", got.Att.AngleTo(truth.Att))
	}
	if st.MatchingOps == 0 {
		t.Error("pose optimization did not account its work")
	}
}

func TestOptimizePoseRobustToOutliers(t *testing.T) {
	cam := dataset.DefaultCamera()
	r := rand.New(rand.NewSource(2))
	truth := Pose{Pos: mathx.V3(0.5, 0.2, -0.3), Att: mathx.QuatIdentity()}
	var pts []mathx.Vec3
	var us, vs []float64
	for len(pts) < 100 {
		pw := mathx.V3(r.Float64()*16-8, r.Float64()*8-4, 3+r.Float64()*8)
		pc := truth.WorldToCamera(pw)
		u, v, ok := cam.Project(pc)
		if !ok {
			continue
		}
		pts = append(pts, pw)
		us = append(us, u)
		vs = append(vs, v)
	}
	// Corrupt 15% of measurements badly.
	for i := 0; i < 15; i++ {
		us[i] += 40 + r.Float64()*60
		vs[i] -= 40 + r.Float64()*60
	}
	got := optimizePose(cam, Pose{Att: mathx.QuatIdentity()}, pts, us, vs, 15, nil, new(poseScratch))
	if e := got.Pos.Sub(truth.Pos).Norm(); e > 0.05 {
		t.Errorf("position error with outliers = %v m", e)
	}
}

func TestOptimizePoseDegenerate(t *testing.T) {
	cam := dataset.DefaultCamera()
	init := Pose{Att: mathx.QuatIdentity()}
	got := optimizePose(cam, init, nil, nil, nil, 5, nil, new(poseScratch))
	if got != init {
		t.Error("empty problem changed the pose")
	}
}

func TestPoseTransforms(t *testing.T) {
	p := Pose{Pos: mathx.V3(1, 2, 3), Att: mathx.QuatFromEuler(0.1, 0.2, 0.3)}
	w := mathx.V3(-2, 5, 9)
	back := p.CameraToWorld(p.WorldToCamera(w))
	if back.Sub(w).Norm() > 1e-9 {
		t.Errorf("transform round trip error %v", back.Sub(w).Norm())
	}
}

func TestStatsAggregation(t *testing.T) {
	s := Stats{FeatureExtractionOps: 1, MatchingOps: 2, LocalBAOps: 3, GlobalBAOps: 4}
	if s.TotalOps() != 10 {
		t.Errorf("TotalOps = %d", s.TotalOps())
	}
}

// TestRunSequenceAccuracy is the §5 "confirming SLAM key metrics" check: the
// pipeline tracks every synthetic EuRoC sequence with sub-20 cm ATE (real
// ORB-SLAM2 lands 3.5-10 cm on real EuRoC).
func TestRunSequenceAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full 11-sequence run in -short mode")
	}
	for _, spec := range dataset.EuRoCSpecs() {
		seq, err := dataset.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res := RunSequence(seq)
		if res.ATE > 0.25 {
			t.Errorf("%s: ATE = %.3f m, tracking failed", res.Name, res.ATE)
		}
		if res.Stats.Keyframes < 5 {
			t.Errorf("%s: only %d keyframes", res.Name, res.Stats.Keyframes)
		}
		if res.Stats.TrackedMatches/res.Frames < 30 {
			t.Errorf("%s: %d matches/frame, tracking starved", res.Name, res.Stats.TrackedMatches/res.Frames)
		}
	}
}

// TestWorkProfileMatchesPaper checks the Figure 17 premise: bundle
// adjustment is ~90% of the (RPi-equivalent) SLAM work, feature extraction
// around 10%.
func TestWorkProfileMatchesPaper(t *testing.T) {
	spec := dataset.EuRoCSpecs()[0]
	seq, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := RunSequence(seq)
	st := res.Stats
	tot := float64(st.TotalOps())
	baShare := float64(st.LocalBAOps+st.GlobalBAOps) / tot
	if baShare < 0.80 || baShare > 0.95 {
		t.Errorf("BA share = %.1f%%, paper says ≈90%% of ORB-SLAM time on RPi", 100*baShare)
	}
	if float64(st.FeatureExtractionOps)/tot > 0.18 {
		t.Errorf("feature extraction share = %.1f%%, should be ~10%%",
			100*float64(st.FeatureExtractionOps)/tot)
	}
	if st.LocalBAOps <= st.GlobalBAOps {
		t.Error("local BA runs per keyframe and should outweigh periodic global BA")
	}
}

// TestHarderSequencesTrackWorse confirms the difficulty knob reaches the
// tracker: difficult sequences have fewer matches per frame.
func TestHarderSequencesTrackWorse(t *testing.T) {
	specs := dataset.EuRoCSpecs()
	bySeq := map[string]Result{}
	for _, name := range []string{"MH01", "MH05"} {
		for _, sp := range specs {
			if sp.Name == name {
				seq, _ := dataset.Generate(sp)
				bySeq[name] = RunSequence(seq)
			}
		}
	}
	easy := float64(bySeq["MH01"].Stats.TrackedMatches) / float64(bySeq["MH01"].Frames)
	hard := float64(bySeq["MH05"].Stats.TrackedMatches) / float64(bySeq["MH05"].Frames)
	if hard >= easy {
		t.Errorf("MH05 matches/frame (%v) not below MH01 (%v)", hard, easy)
	}
}
