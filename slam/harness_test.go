package slam

import (
	"math"
	"slices"
	"testing"

	"dronedse/dataset"
	"dronedse/mathx"
)

// benchHarness lets the kernel benchmarks and tests invoke the SLAM
// front-end kernels in isolation. It runs a sequence prefix through the
// full pipeline to build a realistic map and scratch state, then lets each
// kernel be invoked on that state. The localMap outputs are copied out of
// the System's scratch, and LocalBA restores the window's keyframe poses
// and landmark positions before it runs, so every call of every kernel
// solves the same problem however often it is repeated.
type benchHarness struct {
	sys   *System
	im    Image
	kps   []Keypoint
	descs []Descriptor
	pts   []mathx.Vec3
	baLo  int
	baOps uint64
	// kfPoses and mpPos snapshot the local-BA window as the prefix left
	// it: the window's keyframe poses, and the positions of mps, the
	// landmarks the window observes.
	kfPoses []Pose
	mps     []*MapPoint
	mpPos   []mathx.Vec3
}

// newBenchHarness processes the first warmFrames frames of seq (clamped to
// the sequence length) and snapshots the kernel inputs at that point.
func newBenchHarness(seq *dataset.Sequence, warmFrames int) *benchHarness {
	if warmFrames > seq.Len() {
		warmFrames = seq.Len()
	}
	s := NewSystem(seq.Cam)
	for i := 0; i < warmFrames; i++ {
		s.ProcessFrame(seq.Frame(i))
	}
	f := seq.Frame(warmFrames - 1)
	h := &benchHarness{
		sys: s,
		im:  Image{W: seq.Cam.Width, H: seq.Cam.Height, Pix: f.Image},
	}
	h.kps = s.det.Detect(h.im)
	_, descs, pts := s.localMap()
	h.descs = append([]Descriptor(nil), descs...)
	h.pts = append([]mathx.Vec3(nil), pts...)
	h.baLo = len(s.keyframes) - localWindow
	if h.baLo < 0 {
		h.baLo = 0
	}
	seen := make([]bool, len(s.points))
	for _, kf := range s.keyframes[h.baLo:] {
		h.kfPoses = append(h.kfPoses, kf.Pose)
		for _, ob := range kf.Obs {
			if mp, ok := s.point(ob.PointID); ok && !seen[ob.PointID] {
				seen[ob.PointID] = true
				h.mps = append(h.mps, mp)
				h.mpPos = append(h.mpPos, mp.Pos)
			}
		}
	}
	// Warm the BA adjacency scratch so steady-state allocation is measured.
	h.baOps = h.LocalBA()
	return h
}

// Detect runs feature detection + description on the snapshot frame and
// returns the keypoint count.
func (h *benchHarness) Detect() int {
	return len(h.sys.det.Detect(h.im))
}

// MatchByProjection runs grid-indexed projection matching of the snapshot
// local map against the snapshot keypoints and returns the match count.
func (h *benchHarness) MatchByProjection() int {
	return len(h.sys.matchByProjection(h.kps, h.descs, h.pts))
}

// LocalBA restores the snapshot keyframe window and its landmarks, runs
// one local bundle-adjustment pass over it and returns the ops charged.
// Without the restore each call would refine the previous call's output,
// and a converging map breaks out of Gauss-Newton early.
func (h *benchHarness) LocalBA() uint64 {
	for i, kf := range h.sys.keyframes[h.baLo:] {
		kf.Pose = h.kfPoses[i]
	}
	for i, mp := range h.mps {
		mp.Pos = h.mpPos[i]
	}
	var ops uint64
	h.sys.bundleAdjust(h.sys.keyframes[h.baLo:], localBAIters, &ops)
	return ops
}

// TestBenchHarnessLocalBARepeatable: repeated LocalBA calls solve the same
// problem, so BenchmarkBundleAdjustLocal times a fixed amount of work
// whatever b.N is. Consecutive calls charge the same ops and leave the
// window's keyframe poses and landmarks with the same bits, and the pass
// does move them.
func TestBenchHarnessLocalBARepeatable(t *testing.T) {
	seq, err := dataset.Generate(dataset.EuRoCSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	h := newBenchHarness(seq, 30)
	state := func() (out []uint64) {
		for _, kf := range h.sys.keyframes[h.baLo:] {
			b := poseBits(kf.Pose)
			out = append(out, b[:]...)
		}
		for _, mp := range h.mps {
			out = append(out, math.Float64bits(mp.Pos.X), math.Float64bits(mp.Pos.Y), math.Float64bits(mp.Pos.Z))
		}
		return out
	}
	first := state()
	for call := 1; call <= 3; call++ {
		if ops := h.LocalBA(); ops != h.baOps {
			t.Fatalf("call %d charged %d ops, the first call %d", call, ops, h.baOps)
		}
		if !slices.Equal(state(), first) {
			t.Fatalf("call %d left different poses or landmarks than the first call", call)
		}
	}
	moved := false
	for i, kf := range h.sys.keyframes[h.baLo:] {
		moved = moved || kf.Pose != h.kfPoses[i]
	}
	if !moved || len(h.mps) == 0 || h.baOps == 0 {
		t.Fatalf("local BA moved no keyframe (%d landmarks, %d ops)", len(h.mps), h.baOps)
	}
}
