package slam

import (
	"dronedse/dataset"
	"dronedse/mathx"
	"dronedse/parallelx"
)

// KeyFrame is a mapped camera frame.
type KeyFrame struct {
	ID   int
	Pose Pose
	// Obs are the 2-D measurements of map points from this keyframe.
	Obs []Observation
}

// MapPoint is a landmark in the SLAM map.
type MapPoint struct {
	ID   int
	Pos  mathx.Vec3
	Desc Descriptor
	// Seen counts observing keyframes.
	Seen int
}

// jointBAEquivalence scales the block-coordinate arithmetic up to the work
// of the joint sparse solver it stands in for: ORB-SLAM's g2o BA builds and
// factorizes the Schur-complement normal equations with robust kernels over
// ~10 Levenberg iterations, roughly an order of magnitude more arithmetic
// per observation than the alternation performed here. The ledger accounts
// the full-solver cost so the platform retiming (Figure 17/Table 5) sees the
// workload the paper measured, in which bundle adjustment is ≈90% of
// ORB-SLAM's execution time on the RPi.
const jointBAEquivalence = 12

// obsRef is one keyframe observation of a map point: the observing
// keyframe's index into the bundleAdjust window (whose kfView the structure
// step reads), plus the fixed 2-D measurement.
type obsRef struct {
	kfi  int32
	u, v float64
}

// kfView is one window keyframe's pose as the structure step reads it,
// prepared once per structure step: the poses are fixed within the step, so
// preparing them per keyframe instead of per observation is bit-identical.
type kfView struct {
	pos mathx.Vec3
	// rot is the world-to-camera rotation, rt its matrix R^T = d(pc)/d(pw).
	rot mathx.Rotation
	rt  mathx.Mat3
}

// viewOf prepares pose for the structure step.
func viewOf(pose Pose) kfView {
	inv := pose.Att.Conj()
	return kfView{pos: pose.Pos, rot: inv.Rotation(), rt: inv.Mat()}
}

// structureChunk is the number of points one structure-step work unit
// refines. One point's refinement is a Gauss-Newton step over a handful of
// observations; chunks of 32 beat one fan-out claim per point end to end
// (DESIGN §8 has the measurement).
const structureChunk = 32

// kfProblem is the motion-step work unit for one keyframe: the map points it
// observes and their measurements. mps/us/vs are fixed for the whole
// bundleAdjust call; pts is refreshed from mps each iteration (structure
// steps move the points between iterations).
type kfProblem struct {
	kf     *KeyFrame
	mps    []*MapPoint
	pts    []mathx.Vec3
	us, vs []float64
	// ps is this problem's pose-solver working set: motion steps for
	// different keyframes run concurrently, so each needs its own.
	ps poseScratch
	// ops is the raw op count of the problem's latest motion step.
	ops uint64
}

// ptProblem is the structure-step work unit for one map point.
type ptProblem struct {
	mp  *MapPoint
	obs []obsRef
	// ops is the raw op count of the point's latest structure step.
	ops uint64
}

// baScratch holds bundleAdjust's adjacency buffers, reused across calls
// (local BA runs on every keyframe insertion).
type baScratch struct {
	kfProbs []kfProblem
	ptProbs []ptProblem
	// ptIdx maps point ID -> index into ptProbs (-1: unseen), dense over
	// the landmark table like every other per-ID structure in the package.
	ptIdx []int32
	// views caches each window keyframe's prepared pose for the structure
	// step, refreshed after every motion step.
	views []kfView
}

// release clears every map pointer the work units hold, over the full
// capacity of each buffer: a truncated slot still references the keyframes
// and points of the call that last filled it. The buffers themselves stay.
func (sc *baScratch) release() {
	kfProbs := sc.kfProbs[:cap(sc.kfProbs)]
	for i := range kfProbs {
		kfProbs[i].kf = nil
		clear(kfProbs[i].mps[:cap(kfProbs[i].mps)])
	}
	ptProbs := sc.ptProbs[:cap(sc.ptProbs)]
	for i := range ptProbs {
		ptProbs[i].mp = nil
	}
}

// bundleAdjust performs block-coordinate bundle adjustment over the given
// keyframes and the map points they observe: alternating motion-only
// Gauss-Newton (per keyframe) and structure-only Gauss-Newton (per point),
// which descends the joint reprojection objective the way ORB-SLAM's local
// and global BA do. ops are accounted to the provided counter at
// joint-solver equivalence.
//
// The observation adjacency (per-keyframe point lists for the motion step,
// per-point observation lists for the structure step) is identical in every
// iteration, so it is built once per call — it used to be rebuilt per
// iteration — and both steps fan out through the parallelx pool: within the
// motion step every keyframe refinement reads only point positions (written
// by the previous structure step) and its own pose; within the structure
// step every point refinement reads only keyframe poses (through the
// per-step kfView cache) and its own position. The motion step fans out
// per keyframe, the structure step in fixed chunks of structureChunk
// points. Each point or keyframe records its op count in its own problem,
// and the counts are summed in index order; uint64 addition is exact, so
// the ledger and all poses/points are identical at every pool size, and no
// fan-out allocates a result slice (MapIndex over struct{} allocates
// nothing, and ForChunks returns none).
func (s *System) bundleAdjust(kfs []*KeyFrame, iters int, opsCounter *uint64) {
	if len(kfs) == 0 {
		return
	}
	sc := &s.ar.ba
	ptIdx := grow(sc.ptIdx, len(s.points))
	for i := range ptIdx {
		ptIdx[i] = -1
	}
	sc.ptIdx = ptIdx
	kfProbs := sc.kfProbs[:0]
	ptProbs := sc.ptProbs[:0]
	// extendKf/extendPt reuse a truncated slot's inner buffers when the
	// backing array still has one, instead of appending a zero value that
	// would discard them.
	extendKf := func() *kfProblem {
		if len(kfProbs) < cap(kfProbs) {
			kfProbs = kfProbs[:len(kfProbs)+1]
		} else {
			kfProbs = append(kfProbs, kfProblem{})
		}
		return &kfProbs[len(kfProbs)-1]
	}
	extendPt := func() *ptProblem {
		if len(ptProbs) < cap(ptProbs) {
			ptProbs = ptProbs[:len(ptProbs)+1]
		} else {
			ptProbs = append(ptProbs, ptProblem{})
		}
		return &ptProbs[len(ptProbs)-1]
	}
	for ki, kf := range kfs {
		var p *kfProblem
		for _, ob := range kf.Obs {
			mp, ok := s.point(ob.PointID)
			if !ok {
				continue
			}
			if p == nil {
				p = extendKf()
				p.kf = kf
				p.mps = p.mps[:0]
				p.us, p.vs = p.us[:0], p.vs[:0]
			}
			p.mps = append(p.mps, mp)
			p.us = append(p.us, ob.U)
			p.vs = append(p.vs, ob.V)
			pi := ptIdx[ob.PointID]
			if pi < 0 {
				pi = int32(len(ptProbs))
				ptIdx[ob.PointID] = pi
				q := extendPt()
				q.mp = mp
				q.obs = q.obs[:0]
			}
			ptProbs[pi].obs = append(ptProbs[pi].obs, obsRef{int32(ki), ob.U, ob.V})
		}
		if p != nil && len(p.mps) < 6 {
			kfProbs = kfProbs[:len(kfProbs)-1] // too few points to refine
		} else if p != nil {
			p.pts = grow(p.pts, len(p.mps))
		}
	}
	// Keep only points seen from >= 2 keyframes in the window (swap, not
	// overwrite, so dropped slots keep their buffers for the next call).
	n := 0
	for i := range ptProbs {
		if len(ptProbs[i].obs) >= 2 {
			ptProbs[n], ptProbs[i] = ptProbs[i], ptProbs[n]
			n++
		}
	}
	ptProbs = ptProbs[:n]
	sc.kfProbs, sc.ptProbs = kfProbs[:0], ptProbs[:0]

	sc.views = grow(sc.views, len(kfs))
	views := sc.views

	// Motion step unit: refine keyframe i's pose against its points.
	motion := func(i int) struct{} {
		p := &kfProbs[i]
		for k, mp := range p.mps {
			p.pts[k] = mp.Pos
		}
		var tmp Stats
		p.kf.Pose = optimizePose(s.Cam, p.kf.Pose, p.pts, p.us, p.vs, 2, &tmp, &p.ps)
		p.ops = tmp.MatchingOps + tmp.LocalBAOps
		return struct{}{}
	}
	// Structure step unit: refine points [lo, hi), each seen from >= 2
	// keyframes.
	structure := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			q := &ptProbs[i]
			q.mp.Pos, q.ops = refinePoint(s.Cam, q.mp.Pos, q.obs, views)
		}
	}
	var raw uint64
	for it := 0; it < iters; it++ {
		parallelx.MapIndex(len(kfProbs), motion)
		for i := range kfProbs {
			raw += kfProbs[i].ops
		}

		// Poses are now fixed until the next motion step: prepare each
		// keyframe once for every structure-step observation.
		for ki, kf := range kfs {
			views[ki] = viewOf(kf.Pose)
		}

		parallelx.ForChunks(len(ptProbs), structureChunk, structure)
		for i := range ptProbs {
			raw += ptProbs[i].ops
		}
	}
	*opsCounter += raw * jointBAEquivalence
}

// refinePoint runs one Gauss-Newton step on a point position from its
// observations (3x3 normal equations), returning the refined position and
// the raw op count. views are the window's keyframes prepared by viewOf.
//
// Its results are bit-identical to the array-indexed original (kept as
// refinePointFull in the tests), by optimizePose's argument: the symmetric
// normal matrix is accumulated as its upper triangle (6 of 9 entries) in
// scalar locals and mirrored, and the 2x3 Jacobian jx R^T skips the two
// products of each row with jx's structural zero (row 0 column 1, row 1
// column 0); for a finite rt a skipped product is ±0, and the sign of a
// zero Jacobian entry cannot reach the accumulators. A keyframe attitude
// that overflows rt also overflows its rotation, and on such inputs the
// point still matches the full form, NaN for NaN
// (TestRefinePointBitIdentical).
func refinePoint(cam dataset.Camera, pos mathx.Vec3, obs []obsRef, views []kfView) (mathx.Vec3, uint64) {
	var h00, h01, h02, h11, h12, h22, g0, g1, g2 float64
	used := 0
	for _, ob := range obs {
		kv := &views[ob.kfi]
		pc := kv.rot.Apply(pos.Sub(kv.pos))
		if pc.Z <= 0.1 {
			continue
		}
		invZ := 1 / pc.Z
		pu := cam.Fx*pc.X*invZ + cam.Cx
		pv := cam.Fy*pc.Y*invZ + cam.Cy
		ru := pu - ob.u
		rv := pv - ob.v
		w := reprojWeight(ru, rv)
		// Projection Jacobian [[ja, 0, jb], [0, jc, jd]] times
		// d(pc)/d(pw) = R^T.
		ja, jb := cam.Fx*invZ, -cam.Fx*pc.X*invZ*invZ
		jc, jd := cam.Fy*invZ, -cam.Fy*pc.Y*invZ*invZ
		rt := &kv.rt
		j00 := ja*rt[0][0] + jb*rt[2][0]
		j01 := ja*rt[0][1] + jb*rt[2][1]
		j02 := ja*rt[0][2] + jb*rt[2][2]
		j10 := jc*rt[1][0] + jd*rt[2][0]
		j11 := jc*rt[1][1] + jd*rt[2][1]
		j12 := jc*rt[1][2] + jd*rt[2][2]
		g0 += w * (j00*ru + j10*rv)
		g1 += w * (j01*ru + j11*rv)
		g2 += w * (j02*ru + j12*rv)
		h00 += w * (j00*j00 + j10*j10)
		h01 += w * (j00*j01 + j10*j11)
		h02 += w * (j00*j02 + j10*j12)
		h11 += w * (j01*j01 + j11*j11)
		h12 += w * (j01*j02 + j11*j12)
		h22 += w * (j02*j02 + j12*j12)
		used++
	}
	if used < 2 {
		return pos, 0
	}
	h00 += 1e-3*h00 + 1e-9
	h11 += 1e-3*h11 + 1e-9
	h22 += 1e-3*h22 + 1e-9
	h := mathx.Mat3{
		{h00, h01, h02},
		{h01, h11, h12},
		{h02, h12, h22},
	}
	inv, ok := h.Inverse()
	if !ok {
		return pos, 0
	}
	delta := inv.MulVec(mathx.V3(g0, g1, g2).Neg())
	if delta.Norm() > 1.0 {
		delta = delta.Scale(1.0 / delta.Norm()) // trust region
	}
	return pos.Add(delta), uint64(used) * 90
}
