package slam

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dronedse/dataset"
	"dronedse/parallelx"
)

// withPool runs body at a forced pool size, restoring the previous one.
func withPool(t *testing.T, n int, body func()) {
	t.Helper()
	prev := parallelx.SetPoolSize(n)
	defer parallelx.SetPoolSize(prev)
	body()
}

// runSeqOutputs captures everything a sequence run produces that downstream
// consumers see: the Result (ATE + the Stats ledger the platform models
// retime), the full per-frame trajectory, and the landmark count.
func runSeqOutputs(t *testing.T, seq *dataset.Sequence) (Result, []Pose, int) {
	t.Helper()
	s := NewSystem(seq.Cam)
	for i := 0; i < seq.Len(); i++ {
		s.ProcessFrame(seq.Frame(i))
	}
	s.Finish()
	res := RunSequence(seq)
	return res, s.Trajectory(), s.MapPoints()
}

// TestRunSequencePoolInvariant is the PR acceptance property: for synthetic
// sequences (including an orbit that triggers loop closure + global BA),
// RunSequence produces bit-identical ATE, trajectory, Stats ledger, and map
// cloud at pool sizes 1, 2, and 8. Every parallel kernel — banded detection,
// per-keypoint description, and both BA steps — must therefore be exactly
// order-independent.
func TestRunSequencePoolInvariant(t *testing.T) {
	// Force the software-pipelined path at pool > 1 even on single-P
	// machines, so the prefetch/tracking overlap is what the bit-identity
	// (and -race) assertions actually exercise.
	forcePipeline = true
	defer func() { forcePipeline = false }()
	specs := []dataset.Spec{
		dataset.EuRoCSpecs()[0],
		{Name: "ORBIT", Difficulty: dataset.Easy, Frames: 185, FPS: 20,
			Landmarks: 900, SpeedMS: 2.0, RoomHalfM: 8, Orbit: true, Seed: 777},
	}
	specs[0].Frames = 70
	for _, spec := range specs {
		seq, err := dataset.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		var serialRes Result
		var serialTraj []Pose
		var serialPts int
		withPool(t, 1, func() {
			serialRes, serialTraj, serialPts = runSeqOutputs(t, seq)
		})
		if serialRes.Frames != spec.Frames {
			t.Fatalf("%s: serial run processed %d frames", spec.Name, serialRes.Frames)
		}
		for _, pool := range []int{2, 8} {
			withPool(t, pool, func() {
				res, traj, pts := runSeqOutputs(t, seq)
				if res != serialRes {
					t.Errorf("%s pool=%d: Result differs from serial:\n got %+v\nwant %+v",
						spec.Name, pool, res, serialRes)
				}
				if !reflect.DeepEqual(traj, serialTraj) {
					t.Errorf("%s pool=%d: trajectory differs from serial", spec.Name, pool)
				}
				if pts != serialPts {
					t.Errorf("%s pool=%d: %d map points, serial had %d", spec.Name, pool, pts, serialPts)
				}
			})
		}
	}
}

// TestMapCloudPoolInvariant: the landmark cloud downstream consumers build
// on is position-for-position identical across pool sizes.
func TestMapCloudPoolInvariant(t *testing.T) {
	spec := dataset.EuRoCSpecs()[0]
	spec.Frames = 50
	seq, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []struct{ X, Y, Z float64 } {
		s := NewSystem(seq.Cam)
		for i := 0; i < seq.Len(); i++ {
			s.ProcessFrame(seq.Frame(i))
		}
		s.Finish()
		var out []struct{ X, Y, Z float64 }
		for _, p := range s.MapPointPositions() {
			out = append(out, struct{ X, Y, Z float64 }{p.X, p.Y, p.Z})
		}
		return out
	}
	var serial []struct{ X, Y, Z float64 }
	withPool(t, 1, func() { serial = run() })
	if len(serial) == 0 {
		t.Fatal("serial run built no map")
	}
	for _, pool := range []int{2, 8} {
		withPool(t, pool, func() {
			if got := run(); !reflect.DeepEqual(got, serial) {
				t.Errorf("pool=%d: map cloud differs from serial", pool)
			}
		})
	}
}

// TestDetectPoolInvariant: the banded parallel detector returns identical
// keypoints (positions, responses, and descriptors) at every pool size, on
// textured, sparse, and degenerate-size images.
func TestDetectPoolInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	images := []Image{
		synthImage(376, 240, [][2]int{{30, 30}, {200, 120}, {90, 200}, {340, 40}}, 11),
		synthImage(160, 120, [][2]int{{80, 60}}, 12),
		synthImage(64, 33, [][2]int{{32, 16}, {10, 8}}, 13), // band remainder < detectBandRows
		synthImage(20, 7, [][2]int{{10, 3}}, 14),            // single 1-row band
	}
	// A pure-noise image exercises the empty-ish path.
	noise := Image{W: 100, H: 90, Pix: make([]uint8, 9000)}
	for i := range noise.Pix {
		noise.Pix[i] = uint8(r.Intn(256))
	}
	images = append(images, noise)

	for imIdx, im := range images {
		var serial []Keypoint
		withPool(t, 1, func() { serial = NewDetector(nil).Detect(im) })
		for _, pool := range []int{2, 3, 8} {
			withPool(t, pool, func() {
				got := NewDetector(nil).Detect(im)
				if !reflect.DeepEqual(got, serial) {
					t.Errorf("image %d pool=%d: %d keypoints differ from serial's %d",
						imIdx, pool, len(got), len(serial))
				}
			})
		}
	}
}

// refFASTScan is the plain reference corner scan: FAST-9 with the 2-of-4
// compass pre-test, a single row-major pass with clamped At sampling, the
// segment test as a run count over the doubled circle, and the response as
// the largest |p - c| on the circle.
func refFASTScan(im Image, thr int) []Keypoint {
	var ref []Keypoint
	for y := 3; y < im.H-3; y++ {
		for x := 3; x < im.W-3; x++ {
			c := int(im.At(x, y))
			hi, lo := 0, 0
			for _, k := range [4]int{0, 4, 8, 12} {
				p := int(im.At(x+fastOffsets[k][0], y+fastOffsets[k][1]))
				if p >= c+thr {
					hi++
				} else if p <= c-thr {
					lo++
				}
			}
			if hi < 2 && lo < 2 {
				continue
			}
			var diffs [32]int
			for k := 0; k < 16; k++ {
				p := int(im.At(x+fastOffsets[k][0], y+fastOffsets[k][1]))
				switch {
				case p >= c+thr:
					diffs[k] = 1
				case p <= c-thr:
					diffs[k] = -1
				}
				diffs[16+k] = diffs[k]
			}
			run, best, sign := 0, 0, 0
			for k := 0; k < 32; k++ {
				if diffs[k] != 0 && diffs[k] == sign {
					run++
				} else {
					sign = diffs[k]
					run = 1
				}
				if diffs[k] != 0 && run > best {
					best = run
				}
			}
			if best < 9 {
				continue
			}
			resp := 0
			for k := 0; k < 16; k++ {
				p := int(im.At(x+fastOffsets[k][0], y+fastOffsets[k][1]))
				if p-c > resp {
					resp = p - c
				} else if c-p > resp {
					resp = c - p
				}
			}
			ref = append(ref, Keypoint{X: float64(x), Y: float64(y), Response: resp})
		}
	}
	return ref
}

// TestDetectMatchesReferenceScan pins the band scan kernel to refFASTScan:
// detectBand run over consecutive row ranges must find exactly the
// reference corners in the same order. This guards the unclamped interior
// indexing, the one-sided bitmask segment test, and the response.
func TestDetectMatchesReferenceScan(t *testing.T) {
	im := synthImage(190, 140, [][2]int{{25, 25}, {100, 70}, {160, 120}, {40, 110}}, 99)
	d := NewDetector(nil)
	ref := refFASTScan(im, d.Threshold)

	// The banded kernel must find exactly the reference corner set.
	var got []Keypoint
	for ci, b := 0, 0; b < im.H-6; ci, b = ci+1, b+detectBandRows {
		hi := b + detectBandRows
		if hi > im.H-6 {
			hi = im.H - 6
		}
		got = d.detectBand(im, 3+b, 3+hi, got)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("banded scan found %d corners, reference %d (or ordering differs)",
			len(got), len(ref))
	}
	if len(ref) == 0 {
		t.Fatal("reference scan found nothing; test image too flat")
	}
}

// refSuppress is one global suppression pass over the whole frame's
// corners in row-major order: it keeps the strongest per cell x cell block
// (first occurrence wins ties) and emits the winners in detection order.
func refSuppress(kps []Keypoint, w, h, cell int) []Keypoint {
	cw := (w + cell - 1) / cell
	ch := (h + cell - 1) / cell
	grid := make([]int, cw*ch)
	for i := range grid {
		grid[i] = -1
	}
	for i, kp := range kps {
		key := int(kp.Y)/cell*cw + int(kp.X)/cell
		if j := grid[key]; j < 0 || kp.Response > kps[j].Response {
			grid[key] = i
		}
	}
	var out []Keypoint
	for i, kp := range kps {
		if grid[int(kp.Y)/cell*cw+int(kp.X)/cell] == i {
			out = append(out, kp)
		}
	}
	return out
}

// refDetect is Detect written plainly: the reference scan, one global 8x8
// suppression, sort.Sort by descending response, the MaxFeatures cap, and
// the clamped describe for every keypoint.
func refDetect(d *Detector, im Image) []Keypoint {
	kps := refSuppress(refFASTScan(im, d.Threshold), im.W, im.H, 8)
	sort.Sort(&kpSorter{kps})
	if len(kps) > d.MaxFeatures {
		kps = kps[:d.MaxFeatures]
	}
	for i := range kps {
		kps[i].Desc = describe(im, kps[i])
	}
	return kps
}

// TestDetectMatchesReferencePipeline pins the whole Detect output —
// keypoints, responses after suppression and sort, and descriptors — to
// refDetect, on synthetic images (including ones with a single band) and
// on a frame from each benchmark sequence. This guards the cell-aligned
// bands, the band-local suppression, the one-sided segment test, and the
// unclamped describe path.
func TestDetectMatchesReferencePipeline(t *testing.T) {
	images := map[string]Image{
		"synth376x240": synthImage(376, 240, [][2]int{{30, 30}, {200, 120}, {90, 200}, {340, 40}}, 11),
		"synth190x140": synthImage(190, 140, [][2]int{{25, 25}, {100, 70}, {160, 120}, {40, 110}}, 99),
		"synth64x33":   synthImage(64, 33, [][2]int{{32, 16}, {10, 8}}, 13),
		"synth20x7":    synthImage(20, 7, [][2]int{{10, 3}}, 14),
	}
	// The three EuRoC-style benchmark sequences plus the loop-closing orbit
	// (roofline.LoopOrbitSpec, which this package cannot import).
	specs := []dataset.Spec{
		{Name: "ORBIT", Difficulty: dataset.Easy, Frames: 185, FPS: 20,
			Landmarks: 900, SpeedMS: 2.0, RoomHalfM: 8, Orbit: true, Seed: 777},
	}
	for _, s := range dataset.EuRoCSpecs() {
		switch s.Name {
		case "MH01", "MH04", "V102":
			specs = append(specs, s)
		}
	}
	d := NewDetector(nil)
	capped := false
	for _, spec := range specs {
		seq, err := dataset.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		im := Image{W: seq.Cam.Width, H: seq.Cam.Height, Pix: seq.Frame(seq.Len() / 2).Image}
		images[spec.Name] = im
		capped = capped || len(refSuppress(refFASTScan(im, d.Threshold), im.W, im.H, 8)) > d.MaxFeatures
	}
	if !capped {
		t.Fatal("no sequence frame fills the MaxFeatures cap; the sort order goes unchecked")
	}
	for name, im := range images {
		want := refDetect(d, im)
		for _, pool := range []int{1, 2} {
			withPool(t, pool, func() {
				if got := NewDetector(nil).Detect(im); !reflect.DeepEqual(got, want) {
					t.Errorf("%s pool=%d: Detect returned %d keypoints, reference %d (or they differ)",
						name, pool, len(got), len(want))
				}
			})
		}
	}
}

// TestHasRun9 checks the bit trick against a direct circular-run scan for
// every 16-bit mask.
func TestHasRun9(t *testing.T) {
	for m := uint32(0); m < 1<<16; m++ {
		want := false
		for s := 0; s < 16 && !want; s++ {
			run := 0
			for k := 0; k < 9; k++ {
				if m&(1<<uint((s+k)%16)) != 0 {
					run++
				}
			}
			want = run == 9
		}
		if got := hasRun9(m); got != want {
			t.Fatalf("hasRun9(%016b) = %v, want %v", m, got, want)
		}
	}
}

// TestBundleAdjustPoolInvariant: a converged-map BA run moves every pose and
// point identically at pool sizes 1, 2, and 8, and charges the identical op
// count.
func TestBundleAdjustPoolInvariant(t *testing.T) {
	spec := dataset.EuRoCSpecs()[0]
	spec.Frames = 60
	seq, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *System {
		s := NewSystem(seq.Cam)
		for i := 0; i < seq.Len(); i++ {
			s.ProcessFrame(seq.Frame(i))
		}
		return s
	}
	type snapshot struct {
		poses []Pose
		ops   uint64
	}
	run := func() snapshot {
		s := build()
		var ops uint64
		s.bundleAdjust(s.keyframes, 4, &ops)
		var poses []Pose
		for _, kf := range s.keyframes {
			poses = append(poses, kf.Pose)
		}
		return snapshot{poses, ops}
	}
	var serial snapshot
	withPool(t, 1, func() { serial = run() })
	if serial.ops == 0 {
		t.Fatal("BA charged no ops")
	}
	for _, pool := range []int{2, 8} {
		withPool(t, pool, func() {
			got := run()
			if got.ops != serial.ops {
				t.Errorf("pool=%d: BA ops %d != serial %d", pool, got.ops, serial.ops)
			}
			if !reflect.DeepEqual(got.poses, serial.poses) {
				t.Errorf("pool=%d: keyframe poses differ from serial", pool)
			}
		})
	}
}
