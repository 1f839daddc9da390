package mapping

import (
	"math/rand"
	"testing"

	"dronedse/mathx"
)

func TestKeyCenterRoundTrip(t *testing.T) {
	g := NewGrid(0.5)
	p := mathx.V3(1.3, -2.7, 0.2)
	k := g.KeyOf(p)
	c := g.Center(k)
	// The center must be in the same voxel as the original point.
	if g.KeyOf(c) != k {
		t.Errorf("center %v left the voxel of %v", c, p)
	}
}

func TestInsertAndOccupied(t *testing.T) {
	g := NewGrid(0.25)
	p := mathx.V3(1, 2, 3)
	if g.Occupied(p) {
		t.Error("empty grid occupied")
	}
	g.InsertPoint(p)
	if !g.Occupied(p) {
		t.Error("inserted point not occupied")
	}
	if g.OccupiedCount() != 1 {
		t.Errorf("occupied count = %d", g.OccupiedCount())
	}
	// Nearby but different voxel stays free.
	if g.Occupied(mathx.V3(1, 2, 3.5)) {
		t.Error("neighboring voxel occupied")
	}
}

func TestZeroResolutionDefaults(t *testing.T) {
	g := NewGrid(0)
	if g.ResM <= 0 {
		t.Error("degenerate resolution not defaulted")
	}
}

func TestLogOddsClamping(t *testing.T) {
	g := NewGrid(1)
	p := mathx.V3(0.5, 0.5, 0.5)
	for i := 0; i < 100; i++ {
		g.InsertPoint(p)
	}
	// A heavily confirmed voxel saturates instead of wrapping the int8.
	if v := g.vox[g.KeyOf(p)]; v != clampHi {
		t.Errorf("log-odds after 100 hits = %d, want the clamp %d", v, clampHi)
	}
}

func TestFromPoints(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var pts []mathx.Vec3
	for i := 0; i < 500; i++ {
		pts = append(pts, mathx.V3(r.Float64()*10, r.Float64()*10, r.Float64()*3))
	}
	g := FromPoints(pts, 0.5)
	if g.OccupiedCount() == 0 {
		t.Fatal("no occupancy from a 500-point cloud")
	}
	for _, p := range pts[:20] {
		if !g.Occupied(p) {
			t.Errorf("source point %v not occupied", p)
		}
	}
}

func TestInflate(t *testing.T) {
	g := NewGrid(0.5)
	p := mathx.V3(2.25, 2.25, 2.25)
	g.InsertPoint(p)
	inf := g.Inflate(1.0)
	if !inf.Occupied(p) {
		t.Error("inflation lost the original obstacle")
	}
	if !inf.Occupied(p.Add(mathx.V3(0.9, 0, 0))) {
		t.Error("inflation did not cover the drone radius")
	}
	if inf.Occupied(p.Add(mathx.V3(2.5, 0, 0))) {
		t.Error("inflation leaked far beyond the radius")
	}
	if inf.OccupiedCount() <= g.OccupiedCount() {
		t.Error("inflation added no voxels")
	}
}

func TestSegmentCollides(t *testing.T) {
	g := NewGrid(0.5)
	// A wall at x=5 spanning y,z in [0, 4].
	for y := 0.25; y < 4; y += 0.5 {
		for z := 0.25; z < 4; z += 0.5 {
			g.InsertPoint(mathx.V3(5.25, y, z))
		}
	}
	if !g.SegmentCollides(mathx.V3(0, 2, 2), mathx.V3(10, 2, 2)) {
		t.Error("segment through the wall reported clear")
	}
	if g.SegmentCollides(mathx.V3(0, 2, 2), mathx.V3(4, 2, 2)) {
		t.Error("segment short of the wall reported blocked")
	}
	if g.SegmentCollides(mathx.V3(0, 2, 6), mathx.V3(10, 2, 6)) {
		t.Error("segment above the wall reported blocked")
	}
}
