package slam

import (
	"dronedse/mathx"
	"dronedse/parallelx"
)

// seqArena is the storage one sequence run reuses frame after frame: the
// detector's buffers, tracking's per-frame scratch, bundle adjustment's
// adjacency and the pipelined driver's keypoint ring. A System works in
// exactly one arena. RunSequence borrows its arena from a free list and
// returns it when the sequence is done, so a warm run regrows none of these
// buffers and allocates only the map it builds: keyframes, map points and
// the trajectory.
type seqArena struct {
	det   detectScratch
	frame frameScratch
	ba    baScratch
	ring  kpRing
}

// release drops every pointer the arena holds into the finished map, so a
// pooled arena keeps no keyframe or landmark alive. Only bundle adjustment's
// work units point into the map; every other buffer holds plain values.
func (a *seqArena) release() { a.ba.release() }

// arenas is the free list RunSequence borrows from (a parallelx.FreeList,
// so a collection never empties it). A run that finds the list empty builds
// a fresh arena, and one that finds it full lets its arena go.
var arenas = parallelx.NewFreeList[*seqArena](8)

// putArena releases a quiescent arena — no goroutine touches it any more —
// and returns it to the free list.
func putArena(a *seqArena) {
	a.release()
	arenas.Put(a)
}

// kpRing is the pipelined driver's keypoint hand-off: a fixed set of
// keypoint buffers that circulate between the prefetch stage and the
// tracker. The prefetch stage takes a slot index from free, copies the
// detector's output into that slot and sends the index on full; the tracker
// receives it, tracks the frame and sends the index back on free. A slot
// therefore has one owner at a time, and a warm ring allocates nothing.
//
// full holds one slot, so the prefetch stage runs at most one frame ahead
// of the hand-off: while the tracker holds frame N and full holds N+1, the
// prefetch stage detects N+2. Three slots cover exactly those three frames,
// so the prefetch stage waits only on full, never for a free slot.
type kpRing struct {
	bufs [3][]Keypoint
	free chan int
	full chan int
}

// init makes the channels on first use. Every run hands each slot back, so
// a ring between runs has all its slots on free and nothing on full.
func (r *kpRing) init() {
	if r.free != nil {
		return
	}
	r.free = make(chan int, len(r.bufs))
	for k := range r.bufs {
		r.free <- k
	}
	r.full = make(chan int, 1)
}

// frameScratch is the System's reusable per-frame storage. Tracking runs
// every frame and used to rebuild the same map-backed grids and match/inlier
// slices each time; holding them here turns the per-frame cost into a handful
// of slice resets after the first few frames. Buffers returned to callers
// inside ProcessFrame are only valid for the current frame — everything that
// outlives the frame (keyframe observations, map points) is copied out.
//
// The scratch is owned by exactly one goroutine (the System's caller), so
// reuse does not affect the pool-size invariance of the pipeline output.
type frameScratch struct {
	// Local-map gather buffers (localMap). lmSeen is dense over point IDs —
	// the package avoids maps on hot paths entirely, because map growth
	// allocates a run-dependent number of overflow buckets (per-map hash
	// seed), which would jitter the allocs/op ledger.
	lmSeen  []bool
	lmIDs   []int
	lmDescs []Descriptor
	lmPts   []mathx.Vec3

	// Keyframe-creation buffers: matchedByKp[i] is the map-point ID tracked
	// by keypoint i (-1: none); taken is dense over point IDs.
	matchedByKp []int
	taken       []bool

	// Keypoint cell grid in CSR layout (matchByProjection): cellStart has
	// one entry per cell plus a terminator; cellKp holds keypoint indices
	// grouped by cell, each group in ascending index order; cellCur is the
	// fill cursor.
	cellStart []int32
	cellCur   []int32
	cellKp    []int32
	usedKp    []bool
	matches   [][2]int

	// Tracking buffers (ProcessFrame): matched point/pixel arrays and the
	// two-pass inlier set.
	mpts     []mathx.Vec3
	us, vs   []float64
	inlier   []bool
	ipts     []mathx.Vec3
	ius, ivs []float64

	// Projection candidates (fuseByProjection).
	projs []projCand

	// Pose-solver working set shared by the tracking passes and the loop
	// registration (all run on the System's goroutine).
	ps poseScratch
}

// projCand is a local map point projected into the current frame.
type projCand struct {
	j    int
	u, v float64
}

// grow returns buf resized to n, reallocating only when capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
