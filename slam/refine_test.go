package slam

import (
	"math"
	"math/rand"
	"testing"

	"dronedse/dataset"
	"dronedse/mathx"
)

// refinePointFull is refinePoint as it was before its normal equations
// moved into scalar locals: each observation rotated through
// Pose.WorldToCamera, R^T taken from the keyframe's attitude, the 2x3
// Jacobian built by array-indexed products with jx's structural zeros, and
// all 9 entries of the normal matrix accumulated. It is the reference for
// TestRefinePointBitIdentical; kfs is the window obsRef.kfi indexes.
func refinePointFull(cam dataset.Camera, pos mathx.Vec3, obs []obsRef, kfs []*KeyFrame) (mathx.Vec3, uint64) {
	var h mathx.Mat3
	var g mathx.Vec3
	used := 0
	for _, ob := range obs {
		pose := kfs[ob.kfi].Pose
		pc := pose.WorldToCamera(pos)
		if pc.Z <= 0.1 {
			continue
		}
		invZ := 1 / pc.Z
		pu := cam.Fx*pc.X*invZ + cam.Cx
		pv := cam.Fy*pc.Y*invZ + cam.Cy
		ru := pu - ob.u
		rv := pv - ob.v
		w := huberWeight(math.Hypot(ru, rv), 4)
		jx := [2][3]float64{
			{cam.Fx * invZ, 0, -cam.Fx * pc.X * invZ * invZ},
			{0, cam.Fy * invZ, -cam.Fy * pc.Y * invZ * invZ},
		}
		rt := pose.Att.Conj().Mat()
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
		delta = delta.Scale(1.0 / delta.Norm())
	}
	return pos.Add(delta), uint64(used) * 90
}

// pointProblem is one refinePoint input set: a window of keyframes, a
// point position and its observations from the window.
type pointProblem struct {
	name string
	kfs  []*KeyFrame
	pos  mathx.Vec3
	obs  []obsRef
}

// harnessPointProblems are the structure-step problems of real local BA
// windows (the benchHarness snapshots): every window point seen from at
// least two keyframes, at its mapped position and displaced by up to 5 cm.
func harnessPointProblems(t *testing.T) []pointProblem {
	t.Helper()
	r := rand.New(rand.NewSource(41))
	var out []pointProblem
	for _, c := range []struct{ seq, warm int }{{0, 30}, {3, 40}} {
		spec := dataset.EuRoCSpecs()[c.seq]
		seq, err := dataset.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		h := newBenchHarness(seq, c.warm)
		kfs := h.sys.keyframes[h.baLo:]
		byPoint := map[int][]obsRef{}
		var order []int
		for ki, kf := range kfs {
			for _, ob := range kf.Obs {
				if _, ok := byPoint[ob.PointID]; !ok {
					order = append(order, ob.PointID)
				}
				byPoint[ob.PointID] = append(byPoint[ob.PointID], obsRef{int32(ki), ob.U, ob.V})
			}
		}
		for _, id := range order {
			obs := byPoint[id]
			if len(obs) < 2 {
				continue
			}
			pos := h.sys.points[id].Pos
			out = append(out, pointProblem{spec.Name, kfs, pos, obs})
			d := mathx.V3(r.Float64()-0.5, r.Float64()-0.5, r.Float64()-0.5).Scale(0.1)
			out = append(out, pointProblem{spec.Name + " displaced", kfs, pos.Add(d), obs})
		}
	}
	return out
}

// randomPointProblems are seeded windows of 2-6 keyframes around a point,
// with pixel noise, gross outliers and observations from behind the
// camera, and degenerate cases: a point on a keyframe's optical axis,
// ±Inf and NaN measurements, coordinates of 1e200, and keyframes whose
// attitude overflows the rotation matrix or is NaN.
func randomPointProblems() []pointProblem {
	cam := dataset.DefaultCamera()
	r := rand.New(rand.NewSource(43))
	var out []pointProblem
	window := func(n int) []*KeyFrame {
		kfs := make([]*KeyFrame, n)
		for i := range kfs {
			kfs[i] = &KeyFrame{ID: i, Pose: Pose{
				Pos: mathx.V3(r.Float64()*2-1, r.Float64()*2-1, r.Float64()*0.4-0.2),
				Att: mathx.QuatFromEuler(r.Float64()*0.3-0.15, r.Float64()*0.3-0.15, r.Float64()*0.6-0.3),
			}}
		}
		return kfs
	}
	observe := func(kfs []*KeyFrame, pw mathx.Vec3) []obsRef {
		var obs []obsRef
		for ki, kf := range kfs {
			u, v, ok := cam.Project(kf.Pose.WorldToCamera(pw))
			if !ok {
				u, v = cam.Cx, cam.Cy // behind or outside: still a measurement
			}
			u += r.NormFloat64()
			v += r.NormFloat64()
			if r.Float64() < 0.2 {
				u += 20 + r.Float64()*60
			}
			obs = append(obs, obsRef{int32(ki), u, v})
		}
		return obs
	}
	for n := 0; n < 400; n++ {
		kfs := window(2 + r.Intn(5))
		truth := mathx.V3(r.Float64()*4-2, r.Float64()*3-1.5, 2+r.Float64()*8)
		if n%7 == 0 {
			truth.Z = -truth.Z // behind every camera: nothing to refine
		}
		obs := observe(kfs, truth)
		pos := truth.Add(mathx.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()).Scale(0.2))
		out = append(out, pointProblem{"random", kfs, pos, obs})
	}

	identity := Pose{Att: mathx.QuatIdentity()}
	negZero := math.Copysign(0, -1)
	axisKfs := []*KeyFrame{{Pose: identity}, {Pose: Pose{Pos: mathx.V3(0.3, 0, 0), Att: mathx.QuatIdentity()}}, {Pose: identity}}
	for _, p := range []mathx.Vec3{{X: 0, Y: 0, Z: 4}, {X: negZero, Y: 0.5, Z: 3}, {X: 0.2, Y: negZero, Z: 5}, {X: negZero, Y: negZero, Z: 2}} {
		out = append(out, pointProblem{"optical axis", axisKfs, p, observe(axisKfs, p)})
	}
	special := func(name string, kfs []*KeyFrame, pos mathx.Vec3, edit func(obs []obsRef)) {
		obs := observe(kfs, pos)
		edit(obs)
		out = append(out, pointProblem{name, kfs, pos, obs})
	}
	kfs := window(4)
	pos := mathx.V3(0.3, -0.2, 5)
	special("+Inf measurement", kfs, pos, func(obs []obsRef) { obs[1].u = math.Inf(1) })
	special("-Inf measurement", kfs, pos, func(obs []obsRef) { obs[2].v = math.Inf(-1) })
	special("NaN measurement", kfs, pos, func(obs []obsRef) { obs[0].u = math.NaN() })
	special("1e200", kfs, mathx.V3(1e200, 1, 1e200), func([]obsRef) {})
	special("1e300", kfs, mathx.V3(1e300, -1e300, 2), func([]obsRef) {})
	big := window(3)
	big[1].Pose.Att = mathx.Quat{W: 1e160, Z: 1e160}
	special("overflowing attitude", big, pos, func([]obsRef) {})
	nanAtt := window(3)
	nanAtt[0].Pose.Att = mathx.Quat{W: math.NaN(), X: 0.1}
	special("NaN attitude", nanAtt, pos, func([]obsRef) {})
	return out
}

// TestRefinePointBitIdentical checks refinePoint, over keyframe views
// prepared by viewOf, against the array-indexed reference on real
// structure-step problems and on random and degenerate ones: the refined
// position has the reference's bits (or is NaN where the reference's is)
// and the op count is identical.
func TestRefinePointBitIdentical(t *testing.T) {
	cam := dataset.DefaultCamera()
	problems := append(harnessPointProblems(t), randomPointProblems()...)
	refined := 0
	for i, p := range problems {
		views := make([]kfView, len(p.kfs))
		for k, kf := range p.kfs {
			views[k] = viewOf(kf.Pose)
		}
		got, ops := refinePoint(cam, p.pos, p.obs, views)
		want, wantOps := refinePointFull(cam, p.pos, p.obs, p.kfs)
		if !sameFloat(got.X, want.X) || !sameFloat(got.Y, want.Y) || !sameFloat(got.Z, want.Z) {
			t.Errorf("problem %d (%s): position %v, reference %v", i, p.name, got, want)
		}
		if ops != wantOps {
			t.Errorf("problem %d (%s): %d ops, reference %d", i, p.name, ops, wantOps)
		}
		if ops > 0 && got != p.pos {
			refined++
		}
	}
	if refined < len(problems)/2 {
		t.Errorf("only %d of %d problems refined their point", refined, len(problems))
	}
}
