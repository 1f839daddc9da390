package slam

import (
	"math"
	"runtime"

	"dronedse/dataset"
	"dronedse/mathx"
	"dronedse/parallelx"
)

// forcePipeline makes RunSequence take the software-pipelined path even on
// a single-P runtime, where it is normally skipped: with GOMAXPROCS=1 the
// prefetch goroutine cannot overlap tracking, so the hand-off is pure
// overhead (~8% slower). The pool-invariance, arena and alloc-budget tests
// set it so the pipelined path and its keypoint ring stay covered on any
// machine.
var forcePipeline = false

// System is the full SLAM pipeline: tracking (feature extraction, matching,
// pose optimization), local mapping (keyframe creation, local BA), and loop
// closing with global BA — the ORB-SLAM organization of §5.
type System struct {
	Cam dataset.Camera
	// Stats is the work ledger the platform models retime.
	Stats Stats

	det *Detector

	// KeyframeEvery inserts a keyframe at least every N frames.
	KeyframeEvery int
	// MinTrackedMatches forces a keyframe when tracking thins out.
	MinTrackedMatches int
	// LocalWindow is the keyframe count local BA optimizes.
	LocalWindow int
	// LocalBAIters / GlobalBAIters are the alternation counts.
	LocalBAIters  int
	GlobalBAIters int
	// GlobalBAEveryKF runs loop-closure detection + global BA every N
	// keyframes (and at Finish).
	GlobalBAEveryKF int

	pose        Pose
	initialized bool
	sinceKF     int
	lastLoopKF  int
	keyframes   []*KeyFrame
	// points is the landmark table, indexed by point ID. IDs are assigned
	// densely and landmarks are never deleted, so a slice replaces the old
	// map: lookups become bounds checks and — unlike a map, whose per-run
	// hash seed makes overflow-bucket allocation nondeterministic — its
	// growth allocates identically on every run, keeping the allocs/op
	// column of BENCH_core.json bit-stable.
	points []*MapPoint

	// traj records the estimated pose per processed frame.
	traj []Pose

	// ar holds the buffers detection, tracking and bundle adjustment reuse
	// across frames. NewSystem gives each System its own; RunSequence
	// lends one from the free list for the length of the sequence.
	ar *seqArena
}

// NewSystem builds the pipeline for a camera.
func NewSystem(cam dataset.Camera) *System { return newSystem(cam, new(seqArena)) }

// newSystem builds the pipeline for a camera over the arena a.
func newSystem(cam dataset.Camera, a *seqArena) *System {
	s := &System{
		Cam:               cam,
		KeyframeEvery:     5,
		MinTrackedMatches: 40,
		LocalWindow:       5,
		LocalBAIters:      6,
		GlobalBAIters:     4,
		GlobalBAEveryKF:   8,
		lastLoopKF:        -1000,
		ar:                a,
	}
	s.det = NewDetector(&s.Stats)
	s.det.scratch = &a.det
	s.pose.Att = mathx.QuatIdentity()
	return s
}

// MapPointPositions returns the positions of all map points — the landmark
// cloud downstream consumers (occupancy mapping, planning) build on. The
// table is stored in ID order, so the cloud is reproducible by construction.
func (s *System) MapPointPositions() []mathx.Vec3 {
	out := make([]mathx.Vec3, 0, len(s.points))
	for _, mp := range s.points {
		out = append(out, mp.Pos)
	}
	return out
}

// point looks up a landmark by ID: a bounds check over the dense table.
func (s *System) point(id int) (*MapPoint, bool) {
	if id < 0 || id >= len(s.points) {
		return nil, false
	}
	return s.points[id], true
}

// localMap gathers the map points observed by the last few keyframes. The
// returned slices are scratch-backed and valid until the next frame.
func (s *System) localMap() (ids []int, descs []Descriptor, pts []mathx.Vec3) {
	sc := &s.ar.frame
	seen := grow(sc.lmSeen, len(s.points))
	for i := range seen {
		seen[i] = false
	}
	sc.lmSeen = seen
	ids, descs, pts = sc.lmIDs[:0], sc.lmDescs[:0], sc.lmPts[:0]
	lo := len(s.keyframes) - s.LocalWindow
	if lo < 0 {
		lo = 0
	}
	for _, kf := range s.keyframes[lo:] {
		for _, ob := range kf.Obs {
			if seen[ob.PointID] {
				continue
			}
			seen[ob.PointID] = true
			mp, ok := s.point(ob.PointID)
			if !ok {
				continue
			}
			ids = append(ids, mp.ID)
			descs = append(descs, mp.Desc)
			pts = append(pts, mp.Pos)
		}
	}
	sc.lmIDs, sc.lmDescs, sc.lmPts = ids, descs, pts
	return
}

// ProcessFrame tracks one camera frame and returns the pose estimate.
func (s *System) ProcessFrame(f dataset.Frame) Pose {
	im := Image{W: s.Cam.Width, H: s.Cam.Height, Pix: f.Image}
	return s.ProcessFrameDetected(s.det.detect(im), f)
}

// ProcessFrameDetected tracks one camera frame whose keypoints were already
// detected and described — the back half of ProcessFrame. It is the
// hand-off point of the software-pipelined driver (see RunSequence): a
// prefetch stage may run detection for frame N+1 on another goroutine while
// this call performs tracking and bundle adjustment for frame N. The split
// is deterministic because detection depends only on the frame pixels —
// never on tracking state — so detecting ahead produces bit-identical
// keypoints, and the tracking state is touched only by this (the owner's)
// goroutine. kps is only read during the call: nothing keeps the slice, so
// the caller may reuse its buffer for the next frame.
func (s *System) ProcessFrameDetected(kps []Keypoint, f dataset.Frame) Pose {
	s.Stats.Frames++

	if !s.initialized {
		// Bootstrap the map at the first frame's (origin) pose.
		s.createKeyframe(kps, f, nil)
		s.initialized = true
		s.traj = append(s.traj, s.pose)
		return s.pose
	}

	ids, descs, pts := s.localMap()
	matches := s.matchByProjection(kps, descs, pts)
	if len(matches) < s.MinTrackedMatches/2 {
		// Tracking-lost fallback: global descriptor search (ORB-SLAM's
		// relocalization path).
		matches = Match(kps, descs, 50, &s.Stats)
	}
	sc := &s.ar.frame
	mpts := grow(sc.mpts, len(matches))[:0]
	us, vs := grow(sc.us, len(matches))[:0], grow(sc.vs, len(matches))[:0]
	for _, m := range matches {
		mpts = append(mpts, pts[m[1]])
		us = append(us, kps[m[0]].X)
		vs = append(vs, kps[m[0]].Y)
	}
	sc.mpts, sc.us, sc.vs = mpts, us, vs
	s.Stats.TrackedMatches += len(matches)
	inlier := grow(sc.inlier, len(matches))
	sc.inlier = inlier
	for i := range inlier {
		inlier[i] = false
	}
	if len(mpts) >= 6 {
		// Two-pass robust tracking: optimize, reject gross outliers,
		// re-optimize on the inlier set (ORB-SLAM's tracking scheme).
		s.pose = optimizePose(s.Cam, s.pose, mpts, us, vs, 5, &s.Stats, &sc.ps)
		ipts := grow(sc.ipts, len(mpts))[:0]
		ius, ivs := grow(sc.ius, len(mpts))[:0], grow(sc.ivs, len(mpts))[:0]
		for i := range mpts {
			ru, rv, ok := reprojErr(s.Cam, s.pose, mpts[i], us[i], vs[i])
			if ok && ru*ru+rv*rv < 36 {
				inlier[i] = true
				ipts = append(ipts, mpts[i])
				ius = append(ius, us[i])
				ivs = append(ivs, vs[i])
			}
		}
		sc.ipts, sc.ius, sc.ivs = ipts, ius, ivs
		if len(ipts) >= 6 {
			s.pose = optimizePose(s.Cam, s.pose, ipts, ius, ivs, 5, &s.Stats, &sc.ps)
		}
	}

	s.sinceKF++
	if s.sinceKF >= s.KeyframeEvery || len(matches) < s.MinTrackedMatches {
		// matchedByKp[i] is the map-point ID keypoint i tracks (-1: none) —
		// a dense scratch array, not a per-keyframe map.
		matchedByKp := grow(sc.matchedByKp, len(kps))
		for i := range matchedByKp {
			matchedByKp[i] = -1
		}
		sc.matchedByKp = matchedByKp
		for i, m := range matches {
			if inlier[i] {
				matchedByKp[m[0]] = ids[m[1]]
			}
		}
		s.fuseByProjection(kps, ids, descs, pts, matchedByKp)
		s.createKeyframe(kps, f, matchedByKp)

		// Local BA over the recent window.
		lo := len(s.keyframes) - s.LocalWindow
		if lo < 0 {
			lo = 0
		}
		s.bundleAdjust(s.keyframes[lo:], s.LocalBAIters, &s.Stats.LocalBAOps)

		// Loop detection is cheap and runs per keyframe; a closure runs
		// pose-graph optimization, then global BA (which also runs
		// periodically without one).
		if oldIdx, found := s.detectLoop(); found {
			s.closeLoop(oldIdx)
			s.bundleAdjust(s.keyframes, s.GlobalBAIters, &s.Stats.GlobalBAOps)
		} else if len(s.keyframes)%s.GlobalBAEveryKF == 0 {
			s.bundleAdjust(s.keyframes, s.GlobalBAIters, &s.Stats.GlobalBAOps)
		}
	}
	s.traj = append(s.traj, s.pose)
	return s.pose
}

// matchByProjection is the tracking matcher: local map points are projected
// under the current pose estimate and paired with keypoints inside a small
// search window by descriptor distance — ORB-SLAM's search-by-projection,
// which keeps the front end cheap compared to bundle adjustment.
//
// The keypoint cell grid is a flat CSR index over scratch buffers (cell
// start offsets plus a keypoint-index array) instead of a per-frame
// map[int][]int; neighbor cells outside the grid are skipped, which matches
// the map version exactly: projections are in-bounds, so an out-of-range
// neighbor key either missed the map or wrapped to a cell at least one full
// 16 px cell away — beyond the 10 px window — and contributed nothing. The
// returned slice is scratch-backed and valid until the next frame.
func (s *System) matchByProjection(kps []Keypoint, descs []Descriptor, pts []mathx.Vec3) [][2]int {
	const cell = 16
	cw := (s.Cam.Width + cell - 1) / cell
	ch := (s.Cam.Height + cell - 1) / cell
	sc := &s.ar.frame
	nc := cw * ch
	start := grow(sc.cellStart, nc+1)
	cur := grow(sc.cellCur, nc)
	cellKp := grow(sc.cellKp, len(kps))
	sc.cellStart, sc.cellCur, sc.cellKp = start, cur, cellKp
	for i := range start {
		start[i] = 0
	}
	cellOf := func(kp *Keypoint) int { return int(kp.Y)/cell*cw + int(kp.X)/cell }
	for i := range kps {
		start[cellOf(&kps[i])+1]++
	}
	for c := 0; c < nc; c++ {
		start[c+1] += start[c]
		cur[c] = start[c]
	}
	for i := range kps { // ascending i per cell = map append order
		c := cellOf(&kps[i])
		cellKp[cur[c]] = int32(i)
		cur[c]++
	}
	usedKp := grow(sc.usedKp, len(kps))
	sc.usedKp = usedKp
	for i := range usedKp {
		usedKp[i] = false
	}
	out := sc.matches[:0]
	candidates := 0
	for j, pw := range pts {
		pc := s.pose.WorldToCamera(pw)
		u, v, ok := s.Cam.Project(pc)
		if !ok {
			continue
		}
		bestD, bestI := 61, -1
		cu, cv := int(u)/cell, int(v)/cell
		for cy := cv - 1; cy <= cv+1; cy++ {
			if cy < 0 || cy >= ch {
				continue
			}
			for cx := cu - 1; cx <= cu+1; cx++ {
				if cx < 0 || cx >= cw {
					continue
				}
				c := cy*cw + cx
				for _, i32 := range cellKp[start[c]:start[c+1]] {
					i := int(i32)
					if usedKp[i] {
						continue
					}
					du, dv := kps[i].X-u, kps[i].Y-v
					if du*du+dv*dv > 100 { // 10 px window
						continue
					}
					candidates++
					if d := HammingDistance(kps[i].Desc, descs[j]); d < bestD {
						bestD, bestI = d, i
					}
				}
			}
		}
		if bestI >= 0 {
			usedKp[bestI] = true
			out = append(out, [2]int{bestI, j})
		}
	}
	sc.matches = out
	// Projection per point plus a Hamming test per windowed candidate.
	s.Stats.MatchingOps += uint64(len(pts))*12 + uint64(candidates)*16
	return out
}

// fuseByProjection associates still-unmatched keypoints with local map
// points by projecting the points under the tracked pose and accepting
// nearby, descriptor-compatible pairs — ORB-SLAM's search-by-projection map
// fusion, which prevents duplicate landmarks from flooding the map.
func (s *System) fuseByProjection(kps []Keypoint, ids []int, descs []Descriptor, pts []mathx.Vec3, matchedByKp []int) {
	// taken is dense over point IDs; size to the local map's IDs too so the
	// kernel works on any caller-supplied ID set, not just s.points.
	n := len(s.points)
	for _, id := range ids {
		if id >= n {
			n = id + 1
		}
	}
	sc := &s.ar.frame
	taken := grow(sc.taken, n)
	for i := range taken {
		taken[i] = false
	}
	sc.taken = taken
	for _, pid := range matchedByKp {
		if pid >= 0 {
			taken[pid] = true
		}
	}
	projs := sc.projs[:0]
	for j, pw := range pts {
		if taken[ids[j]] {
			continue
		}
		pc := s.pose.WorldToCamera(pw)
		u, v, ok := s.Cam.Project(pc)
		if !ok {
			continue
		}
		projs = append(projs, projCand{j, u, v})
	}
	sc.projs = projs
	for i, kp := range kps {
		if matchedByKp[i] >= 0 {
			continue
		}
		bestD, bestJ := 61, -1
		for _, p := range projs {
			du, dv := kp.X-p.u, kp.Y-p.v
			if du*du+dv*dv > 16 { // within 4 px
				continue
			}
			if d := HammingDistance(kp.Desc, descs[p.j]); d < bestD {
				bestD, bestJ = d, p.j
			}
		}
		if bestJ >= 0 && !taken[ids[bestJ]] {
			matchedByKp[i] = ids[bestJ]
			taken[ids[bestJ]] = true
		}
	}
	s.Stats.MatchingOps += uint64(len(kps)) * uint64(len(projs)) * 4
}

// createKeyframe adds the current frame as a keyframe: matched keypoints
// become observations of their map points; unmatched keypoints with stereo
// depth spawn new map points. The observations are copied out of kps into
// a list sized exactly, once.
func (s *System) createKeyframe(kps []Keypoint, f dataset.Frame, matched []int) {
	n := 0
	for i, kp := range kps {
		if i < len(matched) && matched[i] >= 0 || s.depthAt(kp, f) > 0.1 {
			n++
		}
	}
	kf := &KeyFrame{ID: len(s.keyframes), Pose: s.pose, Obs: make([]Observation, 0, n)}
	for i, kp := range kps {
		if i < len(matched) && matched[i] >= 0 {
			pid := matched[i]
			kf.Obs = append(kf.Obs, Observation{PointID: pid, U: kp.X, V: kp.Y})
			if mp, ok := s.point(pid); ok {
				mp.Seen++
			}
			continue
		}
		// New landmark from stereo depth.
		z := s.depthAt(kp, f)
		if z <= 0.1 {
			continue
		}
		pc := mathx.V3((kp.X-s.Cam.Cx)/s.Cam.Fx*z, (kp.Y-s.Cam.Cy)/s.Cam.Fy*z, z)
		pw := s.pose.CameraToWorld(pc)
		id := len(s.points)
		s.points = append(s.points, &MapPoint{ID: id, Pos: pw, Desc: kp.Desc, Seen: 1})
		kf.Obs = append(kf.Obs, Observation{PointID: id, U: kp.X, V: kp.Y})
	}
	s.keyframes = append(s.keyframes, kf)
	s.Stats.Keyframes++
	s.sinceKF = 0
}

// depthAt is the stereo depth under keypoint kp of frame f.
func (s *System) depthAt(kp Keypoint, f dataset.Frame) float64 {
	return float64(f.Depth[int(kp.Y)*s.Cam.Width+int(kp.X)])
}

// detectLoop checks whether the newest keyframe revisits the neighborhood
// of a much older one (a loop closure). A cooldown keeps one revisit from
// firing on every subsequent keyframe.
func (s *System) detectLoop() (oldIdx int, found bool) {
	cur := s.keyframes[len(s.keyframes)-1]
	if cur.ID-s.lastLoopKF < 2*s.GlobalBAEveryKF {
		return 0, false
	}
	for i, old := range s.keyframes {
		if cur.ID-old.ID < 2*s.GlobalBAEveryKF {
			break
		}
		if cur.Pose.Pos.Sub(old.Pose.Pos).Norm() < 1.0 {
			s.Stats.LoopClosures++
			s.lastLoopKF = cur.ID
			return i, true
		}
	}
	return 0, false
}

// Finish runs the final global BA (ORB-SLAM's full-map optimization).
func (s *System) Finish() {
	s.bundleAdjust(s.keyframes, s.GlobalBAIters+1, &s.Stats.GlobalBAOps)
}

// Result summarizes a sequence run.
type Result struct {
	Name  string
	Stats Stats
	// ATE is the RMSE absolute trajectory error in meters.
	ATE float64
	// Frames is the processed frame count.
	Frames int
}

// RunSequence processes a full dataset sequence and reports the SLAM key
// metrics (§5: "while confirming SLAM key metrics"). The ATE is computed
// after translation-aligning the estimated trajectory to ground truth, as
// the standard evaluation does (the SLAM map frame is anchored at the first
// camera pose, not at the world origin).
//
// The run works in an arena borrowed from the free list and returned, with
// its map pointers cleared, once the sequence is done; concurrent runs
// borrow distinct arenas.
func RunSequence(seq *dataset.Sequence) Result {
	a, ok := arenas.Get()
	if !ok {
		a = new(seqArena)
	}
	s := newSystem(seq.Cam, a)
	s.run(seq)
	putArena(a)
	return s.result(seq)
}

// run tracks every frame of seq, pipelined when the pool and runtime allow
// it, then runs the final global BA.
func (s *System) run(seq *dataset.Sequence) {
	s.traj = make([]Pose, 0, seq.Len())
	if parallelx.PoolSize() > 1 && (runtime.GOMAXPROCS(0) > 1 || forcePipeline) {
		s.runPipelined(seq)
	} else {
		for i := 0; i < seq.Len(); i++ {
			s.ProcessFrame(seq.Frame(i))
		}
	}
	s.Finish()
}

// result scores the trajectory of a finished run of seq against ground
// truth.
func (s *System) result(seq *dataset.Sequence) Result {
	var offset mathx.Vec3
	for i, est := range s.traj {
		offset = offset.Add(seq.Frame(i).TruePos.Sub(est.Pos))
	}
	offset = offset.Scale(1 / float64(len(s.traj)))
	var sqSum float64
	for i, est := range s.traj {
		sqSum += est.Pos.Add(offset).Sub(seq.Frame(i).TruePos).NormSq()
	}
	return Result{
		Name:   seq.Spec.Name,
		Stats:  s.Stats,
		ATE:    math.Sqrt(sqSum / float64(len(s.traj))),
		Frames: seq.Len(),
	}
}

// runPipelined is RunSequence's software-pipelined driver: a prefetch
// goroutine detects and describes frame N+1 while tracking and bundle
// adjustment run on frame N. Keypoints cross over in the arena's ring
// (kpRing), whose one-slot full channel keeps the stages at most one frame
// apart and delivers frames strictly in order, so the tracked output is the
// serial path's, bit for bit (TestRunSequencePoolInvariant). RunSequence
// skips this path on a single-P runtime, where no overlap is possible and
// the hand-off is pure overhead.
//
// The prefetch stage reuses the System's detector. That is safe because
// tracking never detects on this path (ProcessFrameDetected), and each
// detection is copied into a ring slot before the next one overwrites the
// detector's buffer; a private detector would grow a second scratch. The
// prefetch stage shares the Stats ledger as its only writer of
// FeatureExtractionOps (tracking writes the other fields). uint64
// accumulation is exact and order-free, and each send on full publishes the
// charge before the frame is tracked, so the ledger is race-free and
// identical to serial accounting. The tracker receives exactly seq.Len()
// frames, so when this returns the prefetch stage has made its last access
// to the arena and every slot is back on free.
func (s *System) runPipelined(seq *dataset.Sequence) {
	r := &s.ar.ring
	r.init()
	go func() {
		for i := 0; i < seq.Len(); i++ {
			kps := s.det.detect(Image{W: s.Cam.Width, H: s.Cam.Height, Pix: seq.Frame(i).Image})
			k := <-r.free
			r.bufs[k] = append(r.bufs[k][:0], kps...)
			r.full <- k
		}
	}()
	for i := 0; i < seq.Len(); i++ {
		k := <-r.full
		s.ProcessFrameDetected(r.bufs[k], seq.Frame(i))
		r.free <- k
	}
}
