package slam

import (
	"math"

	"dronedse/dataset"
	"dronedse/mathx"
)

// huberWeight is the IRLS weight of the Huber loss at residual magnitude r
// with threshold k: 1 inside the inlier band, k/r beyond it.
func huberWeight(r, k float64) float64 {
	if r <= k {
		return 1
	}
	return k / r
}

// huberInlier2 is the squared pixel residual below which reprojWeight
// returns 1 without computing the norm.
const huberInlier2 = 16 * (1 - 1e-9)

// reprojWeight is huberWeight(math.Hypot(ru, rv), 4), the Huber weight of a
// pixel residual (ru, rv), bit for bit, without math.Hypot for inliers. The
// computed ru*ru+rv*rv is two rounded products and a rounded sum, so it is
// within a relative 3e-16 of the exact sum (a square that underflows is off
// by less than 1e-307, far too little to matter near 16). A computed sum
// below 16(1-1e-9) therefore puts the exact norm below 4(1-4.9e-10), and
// Hypot's few-ulp error cannot carry it to 4: huberWeight would return 1.
// NaN and infinite residuals, and residuals whose squares overflow, fail
// the comparison and take the Hypot path.
func reprojWeight(ru, rv float64) float64 {
	if ru*ru+rv*rv < huberInlier2 {
		return 1
	}
	return hypotWeight(ru, rv)
}

// hypotWeight is reprojWeight beyond the inlier bound, kept out of line so
// the inlier test inlines into the solvers' loops.
//
//go:noinline
func hypotWeight(ru, rv float64) float64 { return huberWeight(math.Hypot(ru, rv), 4) }

// Stats is the SLAM work ledger: abstract arithmetic-operation counts per
// kernel, accumulated while the pipeline runs. The platform models divide
// these by per-kernel throughputs to retime the computation on RPi, TX2,
// FPGA and ASIC (Figure 17, Table 5). Figure 17 groups the pipeline into
// feature extraction/matching, local BA, and global BA; tracking's
// pose-only optimization is part of the front end, so its work lands in
// MatchingOps' bucket alongside matching.
//
// Accounting contract: every kernel charges ops for work actually performed
// on its inputs, not for work a naive implementation might have performed —
// Detect charges per pixel scanned plus per descriptor built, Match charges
// per descriptor pair examined, matchByProjection charges per projection
// plus per windowed candidate tested, and BA charges per residual used, at
// joint-solver equivalence. Optimizations that skip work (grids, early
// outs) therefore reduce the ledger only when they skip modeled work, and
// pure data-structure speedups (flat grids, scratch reuse, parallel
// execution) leave it bit-identical. The retiming models depend on that:
// the ledger is the workload definition, so it must be a deterministic
// function of the pipeline inputs alone.
type Stats struct {
	FeatureExtractionOps uint64
	MatchingOps          uint64
	LocalBAOps           uint64
	GlobalBAOps          uint64
	// PoseGraphOps is the loop-closure pose-graph solve, ledgered apart
	// from global BA so the roofline dashboard can place it as its own
	// kernel; the platform retiming folds it into the GlobalBA bucket
	// (Figure 17 groups them).
	PoseGraphOps uint64

	Frames         int
	Keyframes      int
	TrackedMatches int
	LoopClosures   int
}

// TotalOps sums all kernels.
func (s Stats) TotalOps() uint64 {
	return s.FeatureExtractionOps + s.MatchingOps + s.LocalBAOps + s.GlobalBAOps + s.PoseGraphOps
}

// Pose is a camera pose: position and attitude (camera-to-world).
type Pose struct {
	Pos mathx.Vec3
	Att mathx.Quat
}

// WorldToCamera maps a world point into the camera frame.
func (p Pose) WorldToCamera(w mathx.Vec3) mathx.Vec3 {
	return p.Att.RotateInv(w.Sub(p.Pos))
}

// CameraToWorld maps a camera-frame point into the world.
func (p Pose) CameraToWorld(c mathx.Vec3) mathx.Vec3 {
	return p.Att.Rotate(c).Add(p.Pos)
}

// Observation is a 2-D measurement of a map point from a keyframe.
type Observation struct {
	PointID int
	U, V    float64
}

// reprojErr computes the pixel residual of a world point under a pose.
func reprojErr(cam dataset.Camera, pose Pose, pw mathx.Vec3, u, v float64) (ru, rv float64, ok bool) {
	pc := pose.WorldToCamera(pw)
	pu, pv, ok := cam.Project(pc)
	if !ok {
		return 0, 0, false
	}
	return pu - u, pv - v, true
}

// poseScratch is the fixed-size working set of optimizePose: the 6x6 normal
// matrix, its Cholesky factor, and the solve vectors, carved from one arena
// so a persistent owner (tracking scratch, a BA motion-step problem) pays
// its three allocations once and every subsequent call allocates nothing.
// Not safe for concurrent use; each concurrent caller owns its own.
type poseScratch struct {
	h, l          mathx.Dense
	neg, dx, yTmp []float64
}

// init lazily carves the arena; a zero poseScratch is ready after one call.
func (ps *poseScratch) init() {
	if ps.neg != nil {
		return
	}
	buf := make([]float64, 2*36+3*6)
	ps.h = mathx.DenseOn(buf[0:36], 6, 6)
	ps.l = mathx.DenseOn(buf[36:72], 6, 6)
	ps.neg, ps.dx, ps.yTmp = buf[72:78], buf[78:84], buf[84:90]
}

// optimizePose refines a camera pose from 3-D map points and their 2-D
// measurements by Gauss-Newton on the reprojection error over the 6-DOF
// twist (translation + small rotation), over caller-owned scratch. It is
// the tracking back end, and the BA motion step uses it too; its
// arithmetic is accounted to stats.MatchingOps (front-end tracking). The
// loop does not allocate, and its results are bit-identical to the
// original array-indexed loop (kept as optimizePoseFull in the tests):
//
//   - The pose is fixed within an iteration, so its world-to-camera
//     Rotation and R^T are prepared once per iteration, not per point.
//   - The symmetric normal matrix is accumulated as its upper triangle, 21
//     scalar locals, and mirrored into the Cholesky input; IEEE
//     multiplication commutes exactly, so the mirrored entry is the one a
//     full accumulation builds.
//   - Each observation's 2x6 Jacobian is built from its nonzero structure:
//     row 0 of jx is zero in column 1, row 1 in column 0, and [pc]_x has a
//     zero diagonal, so 12 of the full form's 36 products have a zero
//     operand and are skipped. A skipped product is ±0 when its other
//     operand is finite, so skipping it can change only the sign of a
//     Jacobian entry that is exactly zero. That sign cannot reach the
//     normal equations: a product with it is ±0 or the NaN the full product
//     gives too, the accumulators start at +0, and an IEEE sum is -0 only
//     when both addends are -0, so adding ±0 leaves every accumulator as it
//     was. The argument is term by term only for finite operands; a point or
//     rotation at or beyond overflow (0·∞ is NaN, not ±0) also puts a
//     non-finite value into kept products, and on such inputs the pose
//     still matches the full form, NaN for NaN
//     (TestOptimizePoseDegenerateBitIdentical).
func optimizePose(cam dataset.Camera, init Pose, pts []mathx.Vec3, us, vs []float64, iters int, stats *Stats, ps *poseScratch) Pose {
	pose := init
	n := len(pts)
	if n < 4 {
		return pose
	}
	ps.init()
	for it := 0; it < iters; it++ {
		// Normal equations over the 6-vector [dt; dtheta]: hAB is entry
		// (A, B) of the upper triangle, gA the gradient.
		var h00, h01, h02, h03, h04, h05,
			h11, h12, h13, h14, h15,
			h22, h23, h24, h25,
			h33, h34, h35,
			h44, h45,
			h55 float64
		var g0, g1, g2, g3, g4, g5 float64
		// The pose is fixed for the whole iteration: prepare its
		// world-to-camera rotation and R^T (d(pc)/d(dt) = -R^T) once.
		rot := pose.Att.Conj().Rotation()
		rt := pose.Att.Conj().Mat()
		used := 0
		for i := 0; i < n; i++ {
			pc := rot.Apply(pts[i].Sub(pose.Pos))
			if pc.Z <= 0.1 {
				continue
			}
			invZ := 1 / pc.Z
			pu := cam.Fx*pc.X*invZ + cam.Cx
			pv := cam.Fy*pc.Y*invZ + cam.Cy
			ru := pu - us[i]
			rv := pv - vs[i]
			// Huber robustness: wrong data associations must not
			// dominate the normal equations.
			w := reprojWeight(ru, rv)
			// Jacobian of projection wrt camera-frame point:
			// [[ja, 0, jb], [0, jc, jd]].
			ja, jb := cam.Fx*invZ, -cam.Fx*pc.X*invZ*invZ
			jc, jd := cam.Fy*invZ, -cam.Fy*pc.Y*invZ*invZ
			// Observation Jacobian rows: translation block -(jx R^T),
			// rotation block jx [pc]_x (for the perturbation
			// pc' = R^T(exp(-[dtheta])...)).
			j00 := -(ja*rt[0][0] + jb*rt[2][0])
			j01 := -(ja*rt[0][1] + jb*rt[2][1])
			j02 := -(ja*rt[0][2] + jb*rt[2][2])
			j03 := jb * -pc.Y
			j04 := ja*-pc.Z + jb*pc.X
			j05 := ja * pc.Y
			j10 := -(jc*rt[1][0] + jd*rt[2][0])
			j11 := -(jc*rt[1][1] + jd*rt[2][1])
			j12 := -(jc*rt[1][2] + jd*rt[2][2])
			j13 := jc*pc.Z + jd*-pc.Y
			j14 := jd * pc.X
			j15 := jc * -pc.X
			g0 += w * (j00*ru + j10*rv)
			g1 += w * (j01*ru + j11*rv)
			g2 += w * (j02*ru + j12*rv)
			g3 += w * (j03*ru + j13*rv)
			g4 += w * (j04*ru + j14*rv)
			g5 += w * (j05*ru + j15*rv)
			h00 += w * (j00*j00 + j10*j10)
			h01 += w * (j00*j01 + j10*j11)
			h02 += w * (j00*j02 + j10*j12)
			h03 += w * (j00*j03 + j10*j13)
			h04 += w * (j00*j04 + j10*j14)
			h05 += w * (j00*j05 + j10*j15)
			h11 += w * (j01*j01 + j11*j11)
			h12 += w * (j01*j02 + j11*j12)
			h13 += w * (j01*j03 + j11*j13)
			h14 += w * (j01*j04 + j11*j14)
			h15 += w * (j01*j05 + j11*j15)
			h22 += w * (j02*j02 + j12*j12)
			h23 += w * (j02*j03 + j12*j13)
			h24 += w * (j02*j04 + j12*j14)
			h25 += w * (j02*j05 + j12*j15)
			h33 += w * (j03*j03 + j13*j13)
			h34 += w * (j03*j04 + j13*j14)
			h35 += w * (j03*j05 + j13*j15)
			h44 += w * (j04*j04 + j14*j14)
			h45 += w * (j04*j05 + j14*j15)
			h55 += w * (j05*j05 + j15*j15)
			used++
		}
		if used < 4 {
			break
		}
		// Levenberg damping keeps distant initializations stable.
		h00 += 1e-3*h00 + 1e-9
		h11 += 1e-3*h11 + 1e-9
		h22 += 1e-3*h22 + 1e-9
		h33 += 1e-3*h33 + 1e-9
		h44 += 1e-3*h44 + 1e-9
		h55 += 1e-3*h55 + 1e-9
		hm := [6][6]float64{
			{h00, h01, h02, h03, h04, h05},
			{h01, h11, h12, h13, h14, h15},
			{h02, h12, h22, h23, h24, h25},
			{h03, h13, h23, h33, h34, h35},
			{h04, h14, h24, h34, h44, h45},
			{h05, h15, h25, h35, h45, h55},
		}
		for a := 0; a < 6; a++ {
			for b := 0; b < 6; b++ {
				ps.h.Set(a, b, hm[a][b])
			}
		}
		ps.neg[0], ps.neg[1], ps.neg[2], ps.neg[3], ps.neg[4], ps.neg[5] = -g0, -g1, -g2, -g3, -g4, -g5
		if !ps.h.CholeskyInto(&ps.l) {
			break
		}
		mathx.SolveWithCholesky(&ps.l, ps.neg, ps.dx, ps.yTmp)
		dx := ps.dx
		pose.Pos = pose.Pos.Add(mathx.V3(dx[0], dx[1], dx[2]))
		dq := mathx.V3(dx[3], dx[4], dx[5])
		pose.Att = pose.Att.Mul(mathx.QuatFromAxisAngle(dq.Normalized(), dq.Norm())).Normalized()
		if stats != nil {
			stats.MatchingOps += uint64(used) * 120
		}
		if mathx.V3(dx[0], dx[1], dx[2]).Norm() < 1e-6 && dq.Norm() < 1e-7 {
			break
		}
	}
	return pose
}
