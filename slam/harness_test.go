package slam

import (
	"dronedse/dataset"
	"dronedse/mathx"
)

// benchHarness lets the kernel benchmarks and tests invoke the SLAM
// front-end kernels in isolation. It runs a sequence prefix through the
// full pipeline to build a realistic map and scratch state, then lets each
// kernel be invoked on that state. The localMap outputs are copied out of
// the System's scratch so the harness inputs stay stable across repeated
// kernel calls.
type benchHarness struct {
	sys   *System
	im    Image
	kps   []Keypoint
	descs []Descriptor
	pts   []mathx.Vec3
	baLo  int
	baOps uint64
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
	h.baLo = len(s.keyframes) - s.LocalWindow
	if h.baLo < 0 {
		h.baLo = 0
	}
	// Warm the BA adjacency scratch so steady-state allocation is measured.
	s.bundleAdjust(s.keyframes[h.baLo:], s.LocalBAIters, &h.baOps)
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

// LocalBA runs one local bundle-adjustment pass over the snapshot keyframe
// window and returns the ops charged.
func (h *benchHarness) LocalBA() uint64 {
	var ops uint64
	h.sys.bundleAdjust(h.sys.keyframes[h.baLo:], h.sys.LocalBAIters, &ops)
	return ops
}
