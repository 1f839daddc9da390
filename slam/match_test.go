package slam

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dronedse/dataset"
	"dronedse/mathx"
)

// matchTestSystem returns a System at the identity pose, so a world point
// (X, Y, Z) projects to (Fx*X/Z + Cx, Fy*Y/Z + Cy).
func matchTestSystem() *System {
	return NewSystem(dataset.DefaultCamera())
}

// worldAt returns the world point that projects to pixel (u, v) at depth z
// under the identity pose of matchTestSystem.
func worldAt(cam dataset.Camera, u, v, z float64) mathx.Vec3 {
	return mathx.V3((u-cam.Cx)/cam.Fx*z, (v-cam.Cy)/cam.Fy*z, z)
}

// descBits returns a descriptor with the n lowest bits set, i.e. Hamming
// distance n from the zero descriptor.
func descBits(n int) Descriptor {
	var d Descriptor
	for i := 0; i < n; i++ {
		d[i/64] |= 1 << uint(i%64)
	}
	return d
}

func TestMatchByProjectionWindowCutoff(t *testing.T) {
	s := matchTestSystem()
	// One map point projecting to (100, 100); keypoints at squared pixel
	// distance exactly 100 (accepted: the window test rejects only > 100)
	// and 113 (rejected).
	kps := []Keypoint{
		{X: 107, Y: 108, Desc: descBits(0)}, // dist² = 49+64 = 113: outside
		{X: 106, Y: 108, Desc: descBits(0)}, // dist² = 36+64 = 100: boundary, inside
	}
	pts := []mathx.Vec3{worldAt(s.Cam, 100, 100, 2)}
	got := s.matchByProjection(kps, []Descriptor{descBits(0)}, pts)
	want := [][2]int{{1, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("matches = %v, want %v (10 px window boundary)", got, want)
	}
}

func TestMatchByProjectionBestDescriptor(t *testing.T) {
	s := matchTestSystem()
	// Two keypoints inside the window; the one with smaller Hamming distance
	// to the point descriptor must win even though the other is closer in
	// pixels and earlier in index order.
	kps := []Keypoint{
		{X: 100, Y: 100, Desc: descBits(9)},
		{X: 104, Y: 104, Desc: descBits(2)},
	}
	pts := []mathx.Vec3{worldAt(s.Cam, 100, 100, 2)}
	got := s.matchByProjection(kps, []Descriptor{descBits(0)}, pts)
	want := [][2]int{{1, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("matches = %v, want %v (descriptor distance decides)", got, want)
	}
	// Distances at or above the 61 acceptance cutoff never match.
	kps[0].Desc, kps[1].Desc = descBits(61), descBits(80)
	if got := s.matchByProjection(kps, []Descriptor{descBits(0)}, pts); len(got) != 0 {
		t.Fatalf("matches = %v, want none at distance >= 61", got)
	}
}

func TestMatchByProjectionUsedKeypointExclusivity(t *testing.T) {
	s := matchTestSystem()
	// Two map points projecting into the same window around one good
	// keypoint: the first point (map-point order) claims it, the second must
	// fall back to the worse keypoint rather than double-booking.
	kps := []Keypoint{
		{X: 100, Y: 100, Desc: descBits(0)},
		{X: 103, Y: 100, Desc: descBits(5)},
	}
	descs := []Descriptor{descBits(0), descBits(0)}
	pts := []mathx.Vec3{
		worldAt(s.Cam, 101, 100, 2),
		worldAt(s.Cam, 101, 100, 2.5),
	}
	got := s.matchByProjection(kps, descs, pts)
	want := [][2]int{{0, 0}, {1, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("matches = %v, want %v (used keypoints are exclusive)", got, want)
	}
	// With only the one keypoint, the second point must go unmatched.
	got = s.matchByProjection(kps[:1], descs, pts)
	want = [][2]int{{0, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("matches = %v, want %v (no double-booking)", got, want)
	}
}

func TestMatchByProjectionShuffleInvariant(t *testing.T) {
	s := matchTestSystem()
	// 24 landmarks in disjoint windows, one keypoint each: the resulting
	// keypoint→landmark pairing must not depend on map-point order.
	r := rand.New(rand.NewSource(7))
	var kps []Keypoint
	var pts []mathx.Vec3
	var descs []Descriptor
	for i := 0; i < 24; i++ {
		u := 30 + float64(i%6)*55
		v := 30 + float64(i/6)*50
		kps = append(kps, Keypoint{X: u + r.Float64()*4, Y: v - r.Float64()*4, Desc: descBits(i % 40)})
		pts = append(pts, worldAt(s.Cam, u, v, 1.5+r.Float64()*3))
		descs = append(descs, descBits(i%40))
	}
	pairing := func(pts []mathx.Vec3, descs []Descriptor) map[int]mathx.Vec3 {
		m := map[int]mathx.Vec3{}
		for _, pr := range s.matchByProjection(kps, descs, pts) {
			m[pr[0]] = pts[pr[1]]
		}
		return m
	}
	base := pairing(pts, descs)
	if len(base) != 24 {
		t.Fatalf("baseline matched %d of 24", len(base))
	}
	for trial := 0; trial < 5; trial++ {
		perm := r.Perm(len(pts))
		sp := make([]mathx.Vec3, len(pts))
		sd := make([]Descriptor, len(descs))
		for i, p := range perm {
			sp[p] = pts[i]
			sd[p] = descs[i]
		}
		if got := pairing(sp, sd); !reflect.DeepEqual(got, base) {
			t.Fatalf("trial %d: pairing changed under shuffled map-point order", trial)
		}
	}
}

// refMatchByProjection is the pre-optimization map-backed implementation,
// kept as a test oracle for the flat CSR grid.
func refMatchByProjection(s *System, kps []Keypoint, descs []Descriptor, pts []mathx.Vec3) ([][2]int, int) {
	const cell = 16
	grid := map[int][]int{}
	cw := (s.Cam.Width + cell - 1) / cell
	for i, kp := range kps {
		c := int(kp.Y)/cell*cw + int(kp.X)/cell
		grid[c] = append(grid[c], i)
	}
	used := map[int]bool{}
	var out [][2]int
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
			for cx := cu - 1; cx <= cu+1; cx++ {
				for _, i := range grid[cy*cw+cx] {
					if used[i] {
						continue
					}
					du, dv := kps[i].X-u, kps[i].Y-v
					if du*du+dv*dv > 100 {
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
			used[bestI] = true
			out = append(out, [2]int{bestI, j})
		}
	}
	return out, candidates
}

// TestMatchByProjectionGridEquivalence checks the cell-ordered CSR search
// against the map-backed oracle: random keypoints and projections, then
// keypoints and projections snapped to cell borders (multiples of 16 px,
// and one ulp either side) and to the image edges, including the last,
// partial cell column. Half the trials look from a rotated, displaced pose.
func TestMatchByProjectionGridEquivalence(t *testing.T) {
	s := matchTestSystem()
	r := rand.New(rand.NewSource(31))
	w, h := float64(s.Cam.Width), float64(s.Cam.Height)
	// border snaps x, in [0, limit), to a cell border or an image edge.
	border := func(x, limit float64) float64 {
		switch r.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Nextafter(limit, 0) // the last pixel column or row
		}
		b := math.Min(math.Floor(x/16)*16, math.Floor((limit-1)/16)*16)
		switch r.Intn(3) {
		case 0:
			return math.Nextafter(b, 0)
		case 1:
			return math.Nextafter(b, limit)
		}
		return b
	}
	for trial := 0; trial < 60; trial++ {
		s.pose = Pose{Att: mathx.QuatIdentity()}
		if trial%2 == 1 {
			s.pose = Pose{
				Pos: mathx.V3(r.Float64()-0.5, r.Float64()-0.5, r.Float64()*0.2),
				Att: mathx.QuatFromEuler(r.Float64()*0.2-0.1, r.Float64()*0.2-0.1, r.Float64()*0.4-0.2),
			}
		}
		onBorders := trial >= 20
		nk, np := 5+r.Intn(120), 5+r.Intn(120)
		kps := make([]Keypoint, nk)
		for i := range kps {
			kps[i] = Keypoint{
				X:    r.Float64() * w,
				Y:    r.Float64() * h,
				Desc: Descriptor{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()},
			}
			if onBorders {
				if r.Intn(3) > 0 {
					kps[i].X = border(kps[i].X, w)
				}
				if r.Intn(3) > 0 {
					kps[i].Y = border(kps[i].Y, h)
				}
			}
		}
		descs := make([]Descriptor, np)
		pts := make([]mathx.Vec3, np)
		for j := range pts {
			// Mostly in view, some behind or outside the frustum.
			u := r.Float64()*(w+80) - 40
			v := r.Float64()*(h+80) - 40
			if onBorders && r.Intn(2) == 0 {
				// Projecting onto a border, or close to a keypoint.
				if k := kps[r.Intn(nk)]; r.Intn(2) == 0 {
					u, v = k.X+r.Float64()*20-10, k.Y+r.Float64()*20-10
				} else {
					u, v = border(math.Max(u, 0), w), border(math.Max(v, 0), h)
				}
			}
			z := 0.5 + r.Float64()*6
			if r.Intn(10) == 0 {
				z = -z
			}
			pts[j] = s.pose.CameraToWorld(worldAt(s.Cam, u, v, z))
			descs[j] = Descriptor{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
			if r.Intn(3) == 0 {
				// Near-duplicate descriptors make ties and close calls.
				descs[j] = kps[r.Intn(nk)].Desc
				descs[j][r.Intn(4)] ^= 1 << r.Intn(64)
			}
		}
		wantM, wantCand := refMatchByProjection(s, kps, descs, pts)
		before := s.Stats.MatchingOps
		gotM := s.matchByProjection(kps, descs, pts)
		gotOps := s.Stats.MatchingOps - before
		if len(gotM) != len(wantM) || (len(wantM) > 0 && !reflect.DeepEqual(gotM, wantM)) {
			t.Fatalf("trial %d: flat grid matches %v != map grid %v", trial, gotM, wantM)
		}
		wantOps := uint64(np)*12 + uint64(wantCand)*16
		if gotOps != wantOps {
			t.Fatalf("trial %d: MatchingOps +%d, want %d (candidates=%d)",
				trial, gotOps, wantOps, wantCand)
		}
	}
}

func TestFuseByProjectionWindowAndBest(t *testing.T) {
	s := matchTestSystem()
	kps := []Keypoint{
		{X: 100, Y: 100, Desc: descBits(0)}, // unmatched, near points A/B
		{X: 100, Y: 105, Desc: descBits(0)}, // unmatched, 5 px away: outside 4 px window
	}
	ids := []int{10, 11}
	descs := []Descriptor{descBits(6), descBits(1)} // B is the better descriptor
	pts := []mathx.Vec3{
		worldAt(s.Cam, 101, 100, 2), // A: 1 px from kp 0
		worldAt(s.Cam, 103, 100, 3), // B: 3 px from kp 0
	}
	matched := []int{-1, -1}
	s.fuseByProjection(kps, ids, descs, pts, matched)
	if want := []int{11, -1}; !reflect.DeepEqual(matched, want) {
		t.Fatalf("fused = %v, want %v (4 px window, best descriptor)", matched, want)
	}
}

func TestFuseByProjectionExclusivity(t *testing.T) {
	s := matchTestSystem()
	// Point 20 is already matched to keypoint 0, so fusion must not hand it
	// to keypoint 1 as well; point 21 is free and nearby.
	kps := []Keypoint{
		{X: 100, Y: 100, Desc: descBits(0)},
		{X: 102, Y: 100, Desc: descBits(0)},
	}
	ids := []int{20, 21}
	descs := []Descriptor{descBits(0), descBits(3)}
	pts := []mathx.Vec3{
		worldAt(s.Cam, 101, 100, 2),
		worldAt(s.Cam, 102, 101, 2),
	}
	matched := []int{20, -1}
	s.fuseByProjection(kps, ids, descs, pts, matched)
	if want := []int{20, 21}; !reflect.DeepEqual(matched, want) {
		t.Fatalf("fused = %v, want %v (already-matched points excluded)", matched, want)
	}
}

func TestFuseByProjectionShuffleInvariant(t *testing.T) {
	s := matchTestSystem()
	r := rand.New(rand.NewSource(17))
	var kps []Keypoint
	var ids []int
	var descs []Descriptor
	var pts []mathx.Vec3
	for i := 0; i < 18; i++ {
		u := 40 + float64(i%6)*50
		v := 40 + float64(i/6)*60
		kps = append(kps, Keypoint{X: u + 1, Y: v - 1, Desc: descBits(i % 30)})
		ids = append(ids, 100+i)
		descs = append(descs, descBits(i%30))
		pts = append(pts, worldAt(s.Cam, u, v, 1+r.Float64()*4))
	}
	run := func(ids []int, descs []Descriptor, pts []mathx.Vec3) []int {
		matched := make([]int, len(kps))
		for i := range matched {
			matched[i] = -1
		}
		s.fuseByProjection(kps, ids, descs, pts, matched)
		return matched
	}
	base := run(ids, descs, pts)
	fused := 0
	for _, pid := range base {
		if pid >= 0 {
			fused++
		}
	}
	if fused != 18 {
		t.Fatalf("baseline fused %d of 18", fused)
	}
	for trial := 0; trial < 5; trial++ {
		perm := r.Perm(len(ids))
		si := make([]int, len(ids))
		sd := make([]Descriptor, len(descs))
		sp := make([]mathx.Vec3, len(pts))
		for i, p := range perm {
			si[p], sd[p], sp[p] = ids[i], descs[i], pts[i]
		}
		if got := run(si, sd, sp); !reflect.DeepEqual(got, base) {
			t.Fatalf("trial %d: fusion changed under shuffled map-point order", trial)
		}
	}
}

// TestMatchAccountingExamined pins the Stats contract of the brute-force
// matcher: MatchingOps is charged per descriptor pair actually examined
// (all |a|×|b| of them), not per accepted match.
func TestMatchAccountingExamined(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := make([]Keypoint, 13)
	b := make([]Descriptor, 29)
	for i := range a {
		a[i].Desc = Descriptor{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
	}
	for j := range b {
		b[j] = Descriptor{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
	}
	var st Stats
	Match(a, b, 64, &st)
	if want := uint64(len(a)) * uint64(len(b)) * 16; st.MatchingOps != want {
		t.Fatalf("MatchingOps = %d, want %d (= |a|*|b|*16)", st.MatchingOps, want)
	}
	st = Stats{}
	Match(nil, b, 64, &st)
	if st.MatchingOps != 0 {
		t.Fatalf("MatchingOps = %d for empty query set, want 0", st.MatchingOps)
	}
}
