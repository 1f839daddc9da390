// Package dataset synthesizes EuRoC-MAV-like visual sequences (§5's
// workload; Burri et al. 2016). The real EuRoC dataset is camera imagery
// from a micro aerial vehicle; it is not redistributable here, so the
// package renders controlled synthetic equivalents: a drone trajectory
// through a landmark-filled hall, a pinhole camera, and per-frame grayscale
// images of the projected landmarks. Sequence families mirror EuRoC's:
// MH01-MH05 (machine hall, easy to difficult) and V101-V203 (Vicon rooms),
// with difficulty raising flight speed and lowering texture density — the
// same knobs that make the real sequences hard for ORB-SLAM.
package dataset

import (
	"errors"
	"math"
	"math/rand"

	"dronedse/mathx"
)

// Difficulty grades a sequence like the EuRoC suffixes.
type Difficulty int

// Difficulty levels.
const (
	Easy Difficulty = iota
	Medium
	Difficult
)

// String implements fmt.Stringer.
func (d Difficulty) String() string {
	switch d {
	case Easy:
		return "easy"
	case Medium:
		return "medium"
	default:
		return "difficult"
	}
}

// Camera is a pinhole model.
type Camera struct {
	Width, Height int
	// Fx, Fy, Cx, Cy are the intrinsics in pixels.
	Fx, Fy, Cx, Cy float64
}

// DefaultCamera matches a scaled-down EuRoC sensor (the real one is
// 752x480; 376x240 halves the work while preserving geometry).
func DefaultCamera() Camera {
	return Camera{Width: 376, Height: 240, Fx: 230, Fy: 230, Cx: 188, Cy: 120}
}

// Project maps a camera-frame 3D point to pixel coordinates; ok is false
// behind the camera or outside the image.
func (c Camera) Project(p mathx.Vec3) (u, v float64, ok bool) {
	if p.Z <= 0.1 {
		return 0, 0, false
	}
	u = c.Fx*p.X/p.Z + c.Cx
	v = c.Fy*p.Y/p.Z + c.Cy
	if u < 0 || v < 0 || u >= float64(c.Width) || v >= float64(c.Height) {
		return 0, 0, false
	}
	return u, v, true
}

// Spec describes one sequence.
type Spec struct {
	Name       string
	Difficulty Difficulty
	// Frames is the sequence length.
	Frames int
	// FPS is the camera rate (EuRoC: 20).
	FPS float64
	// Landmarks is the world landmark count (texture density).
	Landmarks int
	// SpeedMS is the trajectory speed.
	SpeedMS float64
	// RoomHalfM is the half-extent of the hall.
	RoomHalfM float64
	// Orbit, when set, replaces the lissajous sweep with a closed loop
	// that returns exactly to the start — the loop-closure scenario.
	Orbit bool
	Seed  int64
}

// EuRoCSpecs returns the 11 Figure 17 sequences. Frame counts are scaled
// down from the real dataset (which runs for minutes) to keep the harness
// fast while preserving the relative per-sequence mix.
func EuRoCSpecs() []Spec {
	mk := func(name string, d Difficulty, frames, lms int, speed float64, seed int64) Spec {
		return Spec{Name: name, Difficulty: d, Frames: frames, FPS: 20,
			Landmarks: lms, SpeedMS: speed, RoomHalfM: 8, Seed: seed}
	}
	return []Spec{
		mk("MH01", Easy, 120, 900, 0.7, 101),
		mk("MH02", Easy, 110, 880, 0.8, 102),
		mk("MH03", Medium, 100, 750, 1.5, 103),
		mk("MH04", Difficult, 90, 600, 2.2, 104),
		mk("MH05", Difficult, 90, 580, 2.4, 105),
		mk("V101", Easy, 100, 820, 0.6, 201),
		mk("V102", Medium, 95, 700, 1.4, 202),
		mk("V103", Difficult, 85, 560, 2.3, 203),
		mk("V201", Easy, 100, 800, 0.7, 301),
		mk("V202", Medium, 95, 680, 1.5, 302),
		mk("V203", Difficult, 85, 540, 2.5, 303),
	}
}

// Frame is one camera sample: the rendered image plus ground truth.
type Frame struct {
	Index int
	TimeS float64
	// Image is the rendered grayscale image, row-major, Width*Height.
	Image []uint8
	// Depth is the stereo-derived depth map in meters (0 where no stereo
	// match exists). The paper's ORB-SLAM2 runs EuRoC in stereo mode;
	// this is the synthetic equivalent of its stereo depth.
	Depth []float32
	// TruePos and TrueAtt are ground truth for trajectory-error metrics.
	TruePos mathx.Vec3
	TrueAtt mathx.Quat
}

// patchSize is the side of each landmark's texture stamp.
const patchSize = 9

// Sequence is a generated dataset.
type Sequence struct {
	Spec   Spec
	Cam    Camera
	frames []Frame
	// LandmarksW are the world-frame landmark positions.
	LandmarksW []mathx.Vec3
	// patches are per-landmark static texture stamps: each landmark has a
	// distinctive, frame-invariant appearance (the role real-world visual
	// texture plays for ORB descriptors).
	patches [][]uint8
}

// Len returns the frame count.
func (s *Sequence) Len() int { return len(s.frames) }

// Frame returns frame i.
func (s *Sequence) Frame(i int) Frame { return s.frames[i] }

// Generate renders a sequence from its spec.
func Generate(spec Spec) (*Sequence, error) {
	if spec.Frames <= 0 || spec.Landmarks <= 0 || spec.FPS <= 0 {
		return nil, errors.New("dataset: invalid spec")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	cam := DefaultCamera()
	seq := &Sequence{Spec: spec, Cam: cam}

	// Landmarks: a textured wall field in front of the trajectory. The
	// drone orbit faces outward at walls z∈[2, RoomHalf*2] away.
	for i := 0; i < spec.Landmarks; i++ {
		seq.LandmarksW = append(seq.LandmarksW, mathx.V3(
			(rng.Float64()*2-1)*spec.RoomHalfM*2.2,
			(rng.Float64()*2-1)*spec.RoomHalfM*1.2,
			2.5+rng.Float64()*spec.RoomHalfM*1.6,
		))
		patch := make([]uint8, patchSize*patchSize)
		for j := range patch {
			patch[j] = uint8(40 + rng.Intn(215))
		}
		// A bright center cluster guarantees a corner response.
		c := patchSize/2*patchSize + patchSize/2
		patch[c] = 255
		patch[c-1], patch[c+1] = 230, 240
		seq.patches = append(seq.patches, patch)
	}

	// Trajectory: a lissajous sweep, camera looking down +Z (toward the
	// landmark field), panning slowly with x-position.
	dt := 1 / spec.FPS
	for i := 0; i < spec.Frames; i++ {
		t := float64(i) * dt
		var pos mathx.Vec3
		var yaw float64
		if spec.Orbit {
			// A closed loop: back at the start on the final frame.
			phi := 2 * math.Pi * float64(i) / float64(spec.Frames-1)
			r := spec.RoomHalfM * 0.35
			pos = mathx.V3(r*math.Sin(phi), r*(math.Cos(phi)-1), 0.3*math.Sin(2*phi))
			yaw = 0.15 * math.Sin(phi)
		} else {
			// Path length scales with speed.
			phase := spec.SpeedMS * t * 0.35
			pos = mathx.V3(
				spec.RoomHalfM*0.8*math.Sin(phase),
				spec.RoomHalfM*0.4*math.Sin(0.7*phase+1),
				0.6*math.Sin(0.5*phase),
			)
			yaw = 0.25 * math.Sin(0.6*phase) // gentle pan
		}
		att := mathx.QuatFromEuler(0, 0, yaw)
		img, depth := seq.render(pos, att, rng)
		seq.frames = append(seq.frames, Frame{
			Index: i, TimeS: t, Image: img, Depth: depth, TruePos: pos, TrueAtt: att,
		})
	}
	return seq, nil
}

// render draws the visible landmarks as bright blobs over textured noise.
// The camera frame is x-right, y-down, z-forward; world-to-camera applies
// the inverse body attitude (camera boresight = world +Z at identity).
func (s *Sequence) render(pos mathx.Vec3, att mathx.Quat, rng *rand.Rand) ([]uint8, []float32) {
	cam := s.Cam
	img := make([]uint8, cam.Width*cam.Height)
	depth := make([]float32, cam.Width*cam.Height)
	// Background: low-amplitude noise (sensor noise rises with
	// difficulty: harder sequences are darker/noisier like V203).
	noise := 6 + 4*int(s.Spec.Difficulty)
	for i := range img {
		img[i] = uint8(20 + rng.Intn(noise))
	}
	// Stereo depth noise grows with difficulty.
	depthNoise := 0.01 + 0.015*float64(s.Spec.Difficulty)
	for li, lw := range s.LandmarksW {
		pc := att.RotateInv(lw.Sub(pos))
		u, v, ok := cam.Project(pc)
		if !ok {
			continue
		}
		z := pc.Z * (1 + rng.NormFloat64()*depthNoise)
		stampPatch(img, depth, cam.Width, cam.Height, u, v, s.patches[li], float32(z))
	}
	return img, depth
}

// stampPatch draws a landmark's static texture centered at (u, v) and fills
// the synthetic stereo depth under it.
func stampPatch(img []uint8, depth []float32, w, h int, u, v float64, patch []uint8, z float32) {
	cu, cv := int(u+0.5), int(v+0.5)
	half := patchSize / 2
	for dy := -half; dy <= half; dy++ {
		for dx := -half; dx <= half; dx++ {
			x, y := cu+dx, cv+dy
			if x < 0 || y < 0 || x >= w || y >= h {
				continue
			}
			img[y*w+x] = patch[(dy+half)*patchSize+(dx+half)]
			depth[y*w+x] = z
		}
	}
}
