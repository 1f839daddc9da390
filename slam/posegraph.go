package slam

import (
	"dronedse/mathx"
)

// Pose-graph optimization: when a loop closure is detected, the drift
// accumulated along the trajectory is redistributed by optimizing the
// keyframe positions against two kinds of constraints — the odometry chain
// (relative positions between consecutive keyframes, trusted locally) and
// the loop edge (the independently re-registered relative position between
// the revisiting and the revisited keyframe). ORB-SLAM runs this as its
// essential-graph optimization before full BA; the translation part
// decouples per axis into three sparse linear least-squares problems,
// solved here by Cholesky on the normal equations.

// GraphEdge is one relative-position constraint p[J] - p[I] ≈ Rel.
type GraphEdge struct {
	I, J   int
	Rel    mathx.Vec3
	Weight float64
}

// OptimizePoseGraph solves for node positions given edges, holding node
// `fixed` at its current value (gauge freedom). It returns the corrected
// positions; the input slice is not modified. Unconstrained nodes keep
// their input positions.
func OptimizePoseGraph(positions []mathx.Vec3, edges []GraphEdge, fixed int) []mathx.Vec3 {
	n := len(positions)
	out := append([]mathx.Vec3(nil), positions...)
	if n == 0 || fixed < 0 || fixed >= n || len(edges) == 0 {
		return out
	}
	// Three decoupled scalar problems (x, y, z). Build the weighted
	// Laplacian once; right-hand sides differ per axis.
	h := mathx.NewDense(n, n)
	bx := make([]float64, n)
	by := make([]float64, n)
	bz := make([]float64, n)
	for _, e := range edges {
		if e.I < 0 || e.I >= n || e.J < 0 || e.J >= n || e.I == e.J {
			continue
		}
		w := e.Weight
		if w <= 0 {
			w = 1
		}
		// residual r = p[J] - p[I] - rel; d r/d p[J] = +1, d/d p[I] = -1.
		h.Addf(e.I, e.I, w)
		h.Addf(e.J, e.J, w)
		h.Addf(e.I, e.J, -w)
		h.Addf(e.J, e.I, -w)
		bx[e.I] -= w * e.Rel.X
		bx[e.J] += w * e.Rel.X
		by[e.I] -= w * e.Rel.Y
		by[e.J] += w * e.Rel.Y
		bz[e.I] -= w * e.Rel.Z
		bz[e.J] += w * e.Rel.Z
	}
	// Gauge fix: pin the fixed node with a stiff prior at its current
	// position, and a feather-weight prior everywhere else so isolated
	// nodes stay put and H is SPD.
	const stiff = 1e6
	const feather = 1e-9
	for i := 0; i < n; i++ {
		w := feather
		if i == fixed {
			w = stiff
		}
		h.Addf(i, i, w)
		bx[i] += w * positions[i].X
		by[i] += w * positions[i].Y
		bz[i] += w * positions[i].Z
	}
	// Factor H once; the three axes share it and differ only in b.
	l := mathx.NewDense(n, n)
	if !h.CholeskyInto(l) {
		return out
	}
	xs, ys, zs, y := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	mathx.SolveWithCholesky(l, bx, xs, y)
	mathx.SolveWithCholesky(l, by, ys, y)
	mathx.SolveWithCholesky(l, bz, zs, y)
	for i := 0; i < n; i++ {
		out[i] = mathx.V3(xs[i], ys[i], zs[i])
	}
	return out
}

// loopEdge re-registers the newest keyframe against the map points the
// revisited keyframe observes, producing the independent relative-position
// measurement the pose graph needs. The revisit usually re-triangulated
// fresh map points rather than re-observing the old IDs, so the landmarks
// are re-associated by appearance: a brute-force descriptor match between
// the two keyframes' map points (charged to MatchingOps like all descriptor
// search), then a pose optimization of the current keyframe against the old
// keyframe's 3-D points. ok is false with too few associations. Runs on the
// System's goroutine over map state only, so it is deterministic at any
// pool size.
func (s *System) loopEdge(old, cur *KeyFrame) (rel mathx.Vec3, ok bool) {
	// The revisited keyframe's surviving map points, deduplicated.
	seen := make([]bool, len(s.points))
	var oldPts []*MapPoint
	var oldDescs []Descriptor
	for _, ob := range old.Obs {
		if seen[ob.PointID] {
			continue
		}
		seen[ob.PointID] = true
		if mp, exists := s.point(ob.PointID); exists {
			oldPts = append(oldPts, mp)
			oldDescs = append(oldDescs, mp.Desc)
		}
	}
	// The current keyframe's measurements, carrying their map points'
	// descriptors as the match queries.
	var queries []Keypoint
	var qu, qv []float64
	for _, ob := range cur.Obs {
		if mp, exists := s.point(ob.PointID); exists {
			queries = append(queries, Keypoint{Desc: mp.Desc})
			qu = append(qu, ob.U)
			qv = append(qv, ob.V)
		}
	}
	pairs := Match(queries, oldDescs, 50, &s.Stats)
	var pts []mathx.Vec3
	var us, vs []float64
	for _, pr := range pairs {
		pts = append(pts, oldPts[pr[1]].Pos)
		us = append(us, qu[pr[0]])
		vs = append(vs, qv[pr[0]])
	}
	if len(pts) < 12 {
		return mathx.Vec3{}, false
	}
	reg := optimizePose(s.Cam, cur.Pose, pts, us, vs, 6, &s.Stats, &s.ar.frame.ps)
	return reg.Pos.Sub(old.Pose.Pos), true
}

// closeLoop runs pose-graph optimization over the keyframe positions using
// the odometry chain plus the detected loop edge, then shifts each
// keyframe's pose (and the current tracking pose) by its correction. Map
// points are subsequently pulled into agreement by the global BA that
// always follows a closure. Work is accounted to GlobalBAOps.
func (s *System) closeLoop(oldIdx int) {
	n := len(s.keyframes)
	cur := s.keyframes[n-1]
	old := s.keyframes[oldIdx]
	rel, ok := s.loopEdge(old, cur)
	if !ok {
		return
	}
	positions := make([]mathx.Vec3, n)
	for i, kf := range s.keyframes {
		positions[i] = kf.Pose.Pos
	}
	edges := make([]GraphEdge, 0, n)
	for i := 1; i < n; i++ {
		edges = append(edges, GraphEdge{
			I: i - 1, J: i,
			Rel:    positions[i].Sub(positions[i-1]),
			Weight: 1,
		})
	}
	// The loop edge gets the weight of the whole chain it corrects.
	edges = append(edges, GraphEdge{I: oldIdx, J: n - 1, Rel: rel, Weight: float64(n)})
	corrected := OptimizePoseGraph(positions, edges, 0)
	for i, kf := range s.keyframes {
		kf.Pose.Pos = corrected[i]
	}
	s.pose.Pos = s.pose.Pos.Add(corrected[n-1].Sub(positions[n-1]))
	// ~30 ops per edge per axis solve, plus the n^3/3 Cholesky.
	s.Stats.PoseGraphOps += uint64(len(edges))*90 + uint64(n*n*n)
}
