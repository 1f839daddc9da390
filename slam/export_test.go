package slam

import (
	"dronedse/dataset"
	"dronedse/mathx"
)

// RunSequenceMap is RunSequence that also returns what the run leaves
// behind besides its Result: the per-frame trajectory and the final
// landmark cloud in ID order, so the external goldens can pin every pose
// and landmark bit.
func RunSequenceMap(seq *dataset.Sequence) (Result, []Pose, []mathx.Vec3) {
	s := runSequence(seq)
	return s.result(seq), s.traj, landmarks(s)
}

// landmarks returns the positions of all map points in ID order.
func landmarks(s *System) []mathx.Vec3 {
	out := make([]mathx.Vec3, 0, len(s.points))
	for _, mp := range s.points {
		out = append(out, mp.Pos)
	}
	return out
}
