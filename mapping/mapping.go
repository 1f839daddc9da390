// Package mapping is an occupancy-grid substrate for the outer-loop
// applications Table 1 lists (LiDAR mapping, sonar mapping, obstacle
// detection): a sparse voxel grid in the Octomap tradition, fed by SLAM map
// points, with the inflation and collision queries the planner
// (dronedse/planner) consumes.
package mapping

import (
	"math"

	"dronedse/mathx"
)

// Key addresses one voxel.
type Key [3]int

// Grid is a sparse log-odds occupancy grid.
type Grid struct {
	// ResM is the voxel edge length in meters.
	ResM float64
	// occupancy thresholds in log-odds steps.
	vox map[Key]int8
}

// Log-odds update constants (Octomap-style clamped counters).
const (
	hitInc     = 3
	occupiedAt = 2
	clampHi    = 16
)

// NewGrid builds an empty grid at the given resolution.
func NewGrid(resM float64) *Grid {
	if resM <= 0 {
		resM = 0.25
	}
	return &Grid{ResM: resM, vox: map[Key]int8{}}
}

// KeyOf returns the voxel containing p.
func (g *Grid) KeyOf(p mathx.Vec3) Key {
	return Key{
		int(math.Floor(p.X / g.ResM)),
		int(math.Floor(p.Y / g.ResM)),
		int(math.Floor(p.Z / g.ResM)),
	}
}

// Center returns a voxel's center point.
func (g *Grid) Center(k Key) mathx.Vec3 {
	return mathx.V3(
		(float64(k[0])+0.5)*g.ResM,
		(float64(k[1])+0.5)*g.ResM,
		(float64(k[2])+0.5)*g.ResM)
}

// InsertPoint marks the voxel containing p as observed-occupied.
func (g *Grid) InsertPoint(p mathx.Vec3) {
	k := g.KeyOf(p)
	g.vox[k] = min(g.vox[k]+hitInc, clampHi)
}

// Occupied reports whether the voxel containing p is occupied.
func (g *Grid) Occupied(p mathx.Vec3) bool { return g.OccupiedKey(g.KeyOf(p)) }

// OccupiedKey reports whether voxel k is occupied.
func (g *Grid) OccupiedKey(k Key) bool { return g.vox[k] >= occupiedAt }

// OccupiedCount returns the number of occupied voxels.
func (g *Grid) OccupiedCount() int {
	n := 0
	for _, v := range g.vox {
		if v >= occupiedAt {
			n++
		}
	}
	return n
}

// FromPoints builds a grid from a landmark cloud (the SLAM map points of
// dronedse/slam become the obstacle map).
func FromPoints(points []mathx.Vec3, resM float64) *Grid {
	g := NewGrid(resM)
	for _, p := range points {
		g.InsertPoint(p)
	}
	return g
}

// Inflate returns a new grid in which every occupied voxel is dilated by
// radiusM — the configuration-space expansion that keeps the planned path a
// drone-radius away from obstacles.
func (g *Grid) Inflate(radiusM float64) *Grid {
	out := NewGrid(g.ResM)
	r := int(math.Ceil(radiusM / g.ResM))
	for k, v := range g.vox {
		if v < occupiedAt {
			continue
		}
		for dx := -r; dx <= r; dx++ {
			for dy := -r; dy <= r; dy++ {
				for dz := -r; dz <= r; dz++ {
					if dx*dx+dy*dy+dz*dz > r*r {
						continue
					}
					out.vox[Key{k[0] + dx, k[1] + dy, k[2] + dz}] = clampHi
				}
			}
		}
	}
	return out
}

// SegmentCollides samples the segment a-b at half-resolution steps and
// reports whether any sample lands in an occupied voxel.
func (g *Grid) SegmentCollides(a, b mathx.Vec3) bool {
	d := b.Sub(a)
	n := int(d.Norm()/(g.ResM/2)) + 1
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		if g.Occupied(a.Add(d.Scale(t))) {
			return true
		}
	}
	return false
}
