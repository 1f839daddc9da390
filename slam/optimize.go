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

// FrontEndOps groups feature extraction + matching (Figure 17's "Feature
// Extraction/Matching" category).
func (s Stats) FrontEndOps() uint64 { return s.FeatureExtractionOps + s.MatchingOps }

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

// OptimizePose refines a camera pose from 3-D map points and their 2-D
// measurements by Gauss-Newton on the reprojection error over the 6-DOF
// twist (translation + small rotation). It is the tracking back end; its
// arithmetic is accounted to stats.MatchingOps (front-end tracking).
func OptimizePose(cam dataset.Camera, init Pose, pts []mathx.Vec3, us, vs []float64, iters int, stats *Stats) Pose {
	var ps poseScratch
	return optimizePose(cam, init, pts, us, vs, iters, stats, &ps)
}

// optimizePose is OptimizePose over caller-owned scratch — the alloc-free
// path the tracking loop and BA motion step use. The arithmetic (including
// accumulation order) is bit-identical to the original Dense-backed loop:
// the rotation matrix and point skew are hoisted because they are constant
// within an iteration/observation, the symmetric normal matrix is
// accumulated as its upper triangle and mirrored (21 of 36 updates), and
// CholeskyInto/SolveWithCholesky are the bit-exact in-place siblings of
// SolveCholesky.
func optimizePose(cam dataset.Camera, init Pose, pts []mathx.Vec3, us, vs []float64, iters int, stats *Stats, ps *poseScratch) Pose {
	pose := init
	n := len(pts)
	if n < 4 {
		return pose
	}
	ps.init()
	for it := 0; it < iters; it++ {
		// Normal equations over the 6-vector [dt; dtheta], accumulated on
		// the stack.
		var hm [6][6]float64
		var g [6]float64
		// d(pc)/d(dt) = -R^T: the pose — hence R^T — is fixed for the whole
		// iteration, so compute it once, not per observation.
		rt := pose.Att.Conj().Mat()
		used := 0
		for i := 0; i < n; i++ {
			pc := pose.WorldToCamera(pts[i])
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
			w := huberWeight(math.Hypot(ru, rv), 4)
			// Jacobian of projection wrt camera-frame point.
			jx := [2][3]float64{
				{cam.Fx * invZ, 0, -cam.Fx * pc.X * invZ * invZ},
				{0, cam.Fy * invZ, -cam.Fy * pc.Y * invZ * invZ},
			}
			// d(pc)/d(dtheta) = [pc]_x (for the perturbation
			// pc' = R^T(exp(-[dtheta])...)). Compose rows.
			sk := mathx.Skew(pc)
			var j [2][6]float64
			for r := 0; r < 2; r++ {
				for cIdx := 0; cIdx < 3; cIdx++ {
					// translation block
					j[r][cIdx] = -(jx[r][0]*rt[0][cIdx] + jx[r][1]*rt[1][cIdx] + jx[r][2]*rt[2][cIdx])
				}
				// rotation block: J * [pc]_x
				for cIdx := 0; cIdx < 3; cIdx++ {
					j[r][3+cIdx] = jx[r][0]*sk[0][cIdx] + jx[r][1]*sk[1][cIdx] + jx[r][2]*sk[2][cIdx]
				}
			}
			// Only the upper triangle is accumulated: IEEE multiplication
			// commutes exactly, so the lower entry a full loop would add,
			// w * (j[0][b]*j[0][a] + j[1][b]*j[1][a]), is this one bit for
			// bit, and the copy below mirrors it.
			for a := 0; a < 6; a++ {
				g[a] += w * (j[0][a]*ru + j[1][a]*rv)
				for b := a; b < 6; b++ {
					hm[a][b] += w * (j[0][a]*j[0][b] + j[1][a]*j[1][b])
				}
			}
			used++
		}
		if used < 4 {
			break
		}
		// Levenberg damping keeps distant initializations stable.
		for a := 0; a < 6; a++ {
			hm[a][a] += 1e-3*hm[a][a] + 1e-9
		}
		for a := 0; a < 6; a++ {
			for b := 0; b < 6; b++ {
				ps.h.Set(a, b, hm[min(a, b)][max(a, b)])
			}
			ps.neg[a] = -g[a]
		}
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
