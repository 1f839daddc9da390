package slam

import (
	"math"
	"math/rand"
	"testing"

	"dronedse/dataset"
	"dronedse/mathx"
)

// optimizePoseFull is optimizePose as it was before its normal equations
// moved into scalar locals: the rotation applied through Quat.RotateInv per
// point, the 2x6 Jacobian built by array-indexed products with every
// structural zero of jx and [pc]_x, and the normal matrix accumulated in
// full, all 36 updates per observation. It is the reference for
// TestOptimizePoseMirrorBitIdentical and
// TestOptimizePoseDegenerateBitIdentical.
func optimizePoseFull(cam dataset.Camera, init Pose, pts []mathx.Vec3, us, vs []float64, iters int, stats *Stats, ps *poseScratch) Pose {
	pose := init
	n := len(pts)
	if n < 4 {
		return pose
	}
	ps.init()
	for it := 0; it < iters; it++ {
		var hm [6][6]float64
		var g [6]float64
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
			w := huberWeight(math.Hypot(ru, rv), 4)
			jx := [2][3]float64{
				{cam.Fx * invZ, 0, -cam.Fx * pc.X * invZ * invZ},
				{0, cam.Fy * invZ, -cam.Fy * pc.Y * invZ * invZ},
			}
			sk := skew(pc)
			var j [2][6]float64
			for r := 0; r < 2; r++ {
				for cIdx := 0; cIdx < 3; cIdx++ {
					j[r][cIdx] = -(jx[r][0]*rt[0][cIdx] + jx[r][1]*rt[1][cIdx] + jx[r][2]*rt[2][cIdx])
				}
				for cIdx := 0; cIdx < 3; cIdx++ {
					j[r][3+cIdx] = jx[r][0]*sk[0][cIdx] + jx[r][1]*sk[1][cIdx] + jx[r][2]*sk[2][cIdx]
				}
			}
			for a := 0; a < 6; a++ {
				g[a] += w * (j[0][a]*ru + j[1][a]*rv)
				for b := 0; b < 6; b++ {
					hm[a][b] += w * (j[0][a]*j[0][b] + j[1][a]*j[1][b])
				}
			}
			used++
		}
		if used < 4 {
			break
		}
		for a := 0; a < 6; a++ {
			hm[a][a] += 1e-3*hm[a][a] + 1e-9
		}
		for a := 0; a < 6; a++ {
			for b := 0; b < 6; b++ {
				ps.h.Set(a, b, hm[a][b])
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

// skew returns the skew-symmetric matrix [v]_x such that [v]_x w = v x w.
func skew(v mathx.Vec3) mathx.Mat3 {
	return mathx.Mat3{
		{0, -v.Z, v.Y},
		{v.Z, 0, -v.X},
		{-v.Y, v.X, 0},
	}
}

// poseBits is a pose as the IEEE bits of its seven fields.
func poseBits(p Pose) [7]uint64 {
	return [7]uint64{
		math.Float64bits(p.Pos.X), math.Float64bits(p.Pos.Y), math.Float64bits(p.Pos.Z),
		math.Float64bits(p.Att.W), math.Float64bits(p.Att.X), math.Float64bits(p.Att.Y), math.Float64bits(p.Att.Z),
	}
}

// poseProblem is one optimizePose input set.
type poseProblem struct {
	name   string
	init   Pose
	pts    []mathx.Vec3
	us, vs []float64
	iters  int
}

// trackingProblems takes real tracking inputs from newBenchHarness: the
// snapshot frame's keypoints matched by projection against the local map,
// solved from the tracked pose and from two perturbed starts.
func trackingProblems(t *testing.T) []poseProblem {
	t.Helper()
	var out []poseProblem
	for _, c := range []struct {
		seq  int // index into dataset.EuRoCSpecs
		warm int
	}{{0, 11}, {0, 60}, {3, 40}} {
		spec := dataset.EuRoCSpecs()[c.seq]
		seq, err := dataset.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		h := newBenchHarness(seq, c.warm)
		var p poseProblem
		for _, m := range h.sys.matchByProjection(h.kps, h.descs, h.pts) {
			p.pts = append(p.pts, h.pts[m[1]])
			p.us = append(p.us, h.kps[m[0]].X)
			p.vs = append(p.vs, h.kps[m[0]].Y)
		}
		if len(p.pts) < 6 {
			t.Fatalf("%s warm %d: only %d tracking matches", spec.Name, c.warm, len(p.pts))
		}
		pose := h.sys.pose
		for k, init := range []Pose{
			pose,
			{Pos: pose.Pos.Add(mathx.V3(0.05, -0.03, 0.02)), Att: pose.Att},
			{Pos: pose.Pos, Att: pose.Att.Mul(mathx.QuatFromEuler(0.01, -0.02, 0.015)).Normalized()},
		} {
			q := p
			q.name = spec.Name
			q.init = init
			q.iters = 5 + k
			out = append(out, q)
		}
	}
	return out
}

// randomProblems are seeded point sets seen from a known pose, with pixel
// noise, gross outliers and a few points behind the camera, solved from a
// perturbed start.
func randomProblems() []poseProblem {
	cam := dataset.DefaultCamera()
	r := rand.New(rand.NewSource(16))
	var out []poseProblem
	for n := 0; n < 8; n++ {
		truth := Pose{
			Pos: mathx.V3(r.Float64()*4-2, r.Float64()*4-2, r.Float64()-0.5),
			Att: mathx.QuatFromEuler(r.Float64()*0.2-0.1, r.Float64()*0.2-0.1, r.Float64()*6-3),
		}
		p := poseProblem{name: "random", iters: 10}
		for len(p.pts) < 20+r.Intn(150) {
			pw := truth.CameraToWorld(mathx.V3(r.Float64()*16-8, r.Float64()*10-5, 1+r.Float64()*12))
			u, v, ok := cam.Project(truth.WorldToCamera(pw))
			if !ok {
				continue
			}
			u += r.NormFloat64()
			v += r.NormFloat64()
			if r.Float64() < 0.2 { // outlier
				u += 30 + r.Float64()*80
				v -= 30 + r.Float64()*80
			}
			p.pts = append(p.pts, pw)
			p.us = append(p.us, u)
			p.vs = append(p.vs, v)
		}
		for k := 0; k < 3; k++ { // behind the camera: skipped by the solver
			p.pts = append(p.pts, truth.CameraToWorld(mathx.V3(r.Float64(), r.Float64(), -1-r.Float64())))
			p.us = append(p.us, cam.Cx)
			p.vs = append(p.vs, cam.Cy)
		}
		p.init = Pose{
			Pos: truth.Pos.Add(mathx.V3(r.Float64()*0.6-0.3, r.Float64()*0.6-0.3, r.Float64()*0.6-0.3)),
			Att: truth.Att.Mul(mathx.QuatFromEuler(r.Float64()*0.1-0.05, r.Float64()*0.1-0.05, r.Float64()*0.1-0.05)),
		}
		out = append(out, p)
	}
	return out
}

// TestOptimizePoseMirrorBitIdentical: accumulating the normal matrix's upper
// triangle and mirroring it returns bit-identical poses and charges the
// identical MatchingOps to the full 36-update accumulation, on real tracking
// inputs and on random point sets with outliers.
func TestOptimizePoseMirrorBitIdentical(t *testing.T) {
	cam := dataset.DefaultCamera()
	problems := append(trackingProblems(t), randomProblems()...)
	var ps, psFull poseScratch
	for i, p := range problems {
		var st, stFull Stats
		got := optimizePose(cam, p.init, p.pts, p.us, p.vs, p.iters, &st, &ps)
		want := optimizePoseFull(cam, p.init, p.pts, p.us, p.vs, p.iters, &stFull, &psFull)
		if poseBits(got) != poseBits(want) {
			t.Errorf("problem %d (%s, %d points): pose %+v, full accumulation %+v",
				i, p.name, len(p.pts), got, want)
		}
		if st.MatchingOps != stFull.MatchingOps {
			t.Errorf("problem %d (%s): MatchingOps %d, full accumulation %d",
				i, p.name, st.MatchingOps, stFull.MatchingOps)
		}
		if st.MatchingOps == 0 {
			t.Errorf("problem %d (%s): solver ran no iteration", i, p.name)
		}
		if poseBits(got) == poseBits(p.init) {
			t.Errorf("problem %d (%s): pose did not move", i, p.name)
		}
	}
}

// TestReprojWeightMatchesHypot checks reprojWeight against the Huber weight
// it stands for, huberWeight(math.Hypot(ru, rv), 4), bit for bit: at the
// inlier bound and one ulp either side of it, at the Huber threshold, at
// signed zeros, subnormals, NaN, infinities and 1e300, and on random
// residuals within 1e-8 of the threshold in every direction.
func TestReprojWeightMatchesHypot(t *testing.T) {
	check := func(ru, rv float64) {
		t.Helper()
		got, want := reprojWeight(ru, rv), huberWeight(math.Hypot(ru, rv), 4)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("reprojWeight(%v, %v) = %v, want %v", ru, rv, got, want)
		}
	}
	bound := math.Sqrt(huberInlier2)
	special := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, 1e-160,
		math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, math.MaxFloat64,
		1, 2.5, 4, -4, math.Nextafter(4, 0), math.Nextafter(4, 5),
		bound, -bound, math.Nextafter(bound, 0), math.Nextafter(bound, 5),
		bound / math.Sqrt2, math.Nextafter(bound/math.Sqrt2, 0), math.Nextafter(bound/math.Sqrt2, 5),
	}
	for _, ru := range special {
		for _, rv := range special {
			check(ru, rv)
		}
	}
	// The squared norm one ulp either side of the bound, in both axes and
	// on the diagonal.
	for _, r2 := range []float64{math.Nextafter(huberInlier2, 0), huberInlier2, math.Nextafter(huberInlier2, 17)} {
		check(math.Sqrt(r2), 0)
		check(0, -math.Sqrt(r2))
		check(math.Sqrt(r2/2), math.Sqrt(r2/2))
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		norm := 4 * (1 + (2*r.Float64()-1)*1e-8)
		a := 2 * math.Pi * r.Float64()
		check(norm*math.Cos(a), norm*math.Sin(a))
	}
}

// sameFloat reports whether a and b have the same IEEE bits, or are both
// NaN: Go leaves a NaN's sign and payload unspecified, and on amd64 they
// follow whichever operand the compiler put first.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// samePose is poseBits equality with sameFloat's NaN rule.
func samePose(a, b Pose) bool {
	fa := [7]float64{a.Pos.X, a.Pos.Y, a.Pos.Z, a.Att.W, a.Att.X, a.Att.Y, a.Att.Z}
	fb := [7]float64{b.Pos.X, b.Pos.Y, b.Pos.Z, b.Att.W, b.Att.X, b.Att.Y, b.Att.Z}
	for k := range fa {
		if !sameFloat(fa[k], fb[k]) {
			return false
		}
	}
	return true
}

// degenerateProblems are pose problems whose points or measurements sit
// where the structural-zero argument of optimizePose is tight or fails:
// points on the optical axis (a camera-frame X or Y of ±0), coordinates
// of 1e200 (finite, but with overflowing Jacobian products) and 1e300 (an
// overflowing projection Jacobian), points at infinite distance, ±Inf and
// NaN measurements, and starting attitudes whose rotation matrix
// overflows or is NaN. Each mixes the degenerate observations into a set
// of ordinary ones, so the solver runs.
func degenerateProblems() []poseProblem {
	cam := dataset.DefaultCamera()
	negZero := math.Copysign(0, -1)
	inf, nan := math.Inf(1), math.NaN()
	r := rand.New(rand.NewSource(23))
	base := func(name string, truth Pose) poseProblem {
		p := poseProblem{name: name, iters: 6}
		for len(p.pts) < 24 {
			pw := truth.CameraToWorld(mathx.V3(r.Float64()*6-3, r.Float64()*4-2, 2+r.Float64()*6))
			u, v, ok := cam.Project(truth.WorldToCamera(pw))
			if !ok {
				continue
			}
			p.pts = append(p.pts, pw)
			p.us = append(p.us, u+r.NormFloat64()*0.5)
			p.vs = append(p.vs, v+r.NormFloat64()*0.5)
		}
		p.init = Pose{Pos: truth.Pos.Add(mathx.V3(0.04, -0.03, 0.02)), Att: truth.Att}
		return p
	}
	add := func(p *poseProblem, pw mathx.Vec3, u, v float64) {
		p.pts = append(p.pts, pw)
		p.us = append(p.us, u)
		p.vs = append(p.vs, v)
	}
	identity := Pose{Att: mathx.QuatIdentity()}
	var out []poseProblem

	// On the optical axis, from a start at the truth (camera and world
	// frames coincide, so the points' camera X/Y are exactly ±0 in the
	// first iteration).
	axis := base("optical axis", identity)
	axis.init = identity
	for _, c := range [][2]float64{{0, 0}, {negZero, 0}, {0, negZero}, {negZero, negZero}, {0, 0.7}, {negZero, -0.4}, {1.1, 0}, {-0.6, negZero}} {
		add(&axis, mathx.V3(c[0], c[1], 3), cam.Cx+c[0]*cam.Fx/3, cam.Cy+c[1]*cam.Fy/3)
	}
	out = append(out, axis)

	huge := base("1e200", identity)
	add(&huge, mathx.V3(1e200, 1e200, 1), cam.Cx, cam.Cy)
	add(&huge, mathx.V3(-1e200, 3, 1e200), cam.Cx, cam.Cy)
	add(&huge, mathx.V3(2, -1e200, 1e200), cam.Cx+5, cam.Cy)
	out = append(out, huge)

	overflow := base("1e300", identity)
	add(&overflow, mathx.V3(1e300, 1, 0.5), cam.Cx, cam.Cy)
	add(&overflow, mathx.V3(0.2, -1e300, 2), cam.Cx, cam.Cy)
	out = append(out, overflow)

	far := base("infinite point", identity)
	add(&far, mathx.V3(0, 0, inf), cam.Cx, cam.Cy)
	add(&far, mathx.V3(inf, 1, 3), cam.Cx, cam.Cy)
	out = append(out, far)

	infMeas := base("±Inf measurement", identity)
	add(&infMeas, mathx.V3(0.5, 0.2, 4), inf, cam.Cy)
	add(&infMeas, mathx.V3(-0.5, 0.1, 3), cam.Cx, math.Inf(-1))
	out = append(out, infMeas)

	nanMeas := base("NaN measurement", identity)
	add(&nanMeas, mathx.V3(0.3, -0.2, 5), nan, cam.Cy)
	out = append(out, nanMeas)

	bigAtt := base("overflowing attitude", identity)
	bigAtt.init.Att = mathx.Quat{W: 1e160, Z: 1e160}
	out = append(out, bigAtt)

	nanAtt := base("NaN attitude", identity)
	nanAtt.init.Att = mathx.Quat{W: nan, X: 0.1}
	out = append(out, nanAtt)
	return out
}

// TestOptimizePoseDegenerateBitIdentical checks optimizePose against the
// full-product reference on degenerateProblems: every pose component has
// the reference's bits (or is NaN where the reference's is), and the
// MatchingOps charge is identical.
func TestOptimizePoseDegenerateBitIdentical(t *testing.T) {
	cam := dataset.DefaultCamera()
	var ps, psFull poseScratch
	for _, p := range degenerateProblems() {
		var st, stFull Stats
		got := optimizePose(cam, p.init, p.pts, p.us, p.vs, p.iters, &st, &ps)
		want := optimizePoseFull(cam, p.init, p.pts, p.us, p.vs, p.iters, &stFull, &psFull)
		if !samePose(got, want) {
			t.Errorf("%s: pose %+v, reference %+v", p.name, got, want)
		}
		if st.MatchingOps != stFull.MatchingOps {
			t.Errorf("%s: MatchingOps %d, reference %d", p.name, st.MatchingOps, stFull.MatchingOps)
		}
	}
}
