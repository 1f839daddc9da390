package slam

import (
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

// obsRef is one keyframe observation of a map point: the observing keyframe
// (whose pose is read live during BA), its index into the bundleAdjust
// window (for the per-iteration rotation cache), plus the fixed 2-D
// measurement.
type obsRef struct {
	kf   *KeyFrame
	kfi  int32
	u, v float64
}

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
	// kfRt caches each window keyframe's inverse-rotation matrix for the
	// structure step, refreshed after every motion step: within one
	// structure step the poses are fixed, so computing R^T once per
	// keyframe instead of once per observation is bit-identical.
	kfRt []mathx.Mat3
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
		clear(ptProbs[i].obs[:cap(ptProbs[i].obs)])
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
// step every point refinement reads only keyframe poses and its own
// position. Each unit records its op count in its own problem, and the
// counts are summed in index order; uint64 addition is exact, so the ledger
// and all poses/points are identical at every pool size, and no fan-out
// allocates a result slice (MapIndex over struct{} allocates nothing).
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
			ptProbs[pi].obs = append(ptProbs[pi].obs, obsRef{kf, int32(ki), ob.U, ob.V})
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

	sc.kfRt = grow(sc.kfRt, len(kfs))
	kfRt := sc.kfRt

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
	// Structure step unit: refine point i, seen from >= 2 keyframes.
	structure := func(i int) struct{} {
		q := &ptProbs[i]
		q.mp.Pos, q.ops = refinePoint(s, q.mp.Pos, q.obs, kfRt)
		return struct{}{}
	}
	var raw uint64
	for it := 0; it < iters; it++ {
		parallelx.MapIndex(len(kfProbs), motion)
		for i := range kfProbs {
			raw += kfProbs[i].ops
		}

		// Poses are now fixed until the next motion step: cache each
		// keyframe's R^T once for every structure-step observation.
		for ki, kf := range kfs {
			kfRt[ki] = kf.Pose.Att.Conj().Mat()
		}

		parallelx.MapIndex(len(ptProbs), structure)
		for i := range ptProbs {
			raw += ptProbs[i].ops
		}
	}
	*opsCounter += raw * jointBAEquivalence
}

// refinePoint runs one Gauss-Newton step on a point position from its
// observations (3x3 normal equations), returning the refined position and
// the raw op count.
func refinePoint(s *System, pos mathx.Vec3, obs []obsRef, kfRt []mathx.Mat3) (mathx.Vec3, uint64) {
	var h mathx.Mat3
	var g mathx.Vec3
	used := 0
	for _, ob := range obs {
		pc := ob.kf.Pose.WorldToCamera(pos)
		if pc.Z <= 0.1 {
			continue
		}
		invZ := 1 / pc.Z
		pu := s.Cam.Fx*pc.X*invZ + s.Cam.Cx
		pv := s.Cam.Fy*pc.Y*invZ + s.Cam.Cy
		ru := pu - ob.u
		rv := pv - ob.v
		w := reprojWeight(ru, rv)
		jx := [2][3]float64{
			{s.Cam.Fx * invZ, 0, -s.Cam.Fx * pc.X * invZ * invZ},
			{0, s.Cam.Fy * invZ, -s.Cam.Fy * pc.Y * invZ * invZ},
		}
		// d(pc)/d(pw) = R^T, cached per keyframe for this structure step.
		rt := &kfRt[ob.kfi]
		var j [2][3]float64
		for r := 0; r < 2; r++ {
			for c := 0; c < 3; c++ {
				j[r][c] = jx[r][0]*rt[0][c] + jx[r][1]*rt[1][c] + jx[r][2]*rt[2][c]
			}
		}
		for a := 0; a < 3; a++ {
			gv := w * (j[0][a]*ru + j[1][a]*rv)
			switch a {
			case 0:
				g.X += gv
			case 1:
				g.Y += gv
			case 2:
				g.Z += gv
			}
			for b := 0; b < 3; b++ {
				h[a][b] += w * (j[0][a]*j[0][b] + j[1][a]*j[1][b])
			}
		}
		used++
	}
	if used < 2 {
		return pos, 0
	}
	for a := 0; a < 3; a++ {
		h[a][a] += 1e-3*h[a][a] + 1e-9
	}
	inv, ok := h.Inverse()
	if !ok {
		return pos, 0
	}
	delta := inv.MulVec(g.Neg())
	if delta.Norm() > 1.0 {
		delta = delta.Scale(1.0 / delta.Norm()) // trust region
	}
	return pos.Add(delta), uint64(used) * 90
}
