package scenario

import (
	"errors"

	"dronedse/parallelx"
)

// BatchChunkLanes is the fixed lane-chunk width a Batch fans through
// parallelx.MapChunks. Chunk boundaries depend only on the lane count, never
// on the pool size, so lane→worker assignment cannot perturb results (the
// PR-3 SLAM chunking discipline). Each lane is self-contained — its own RNG
// streams, fault injector, scratch — so co-tenant lanes cannot perturb it
// regardless of which chunk it lands in.
const BatchChunkLanes = 8

// batchTickStride is how many physics steps Run advances each live lane per
// parallel dispatch. Lanes are mutually independent, so interleaving
// granularity cannot change any lane's arithmetic; a coarse stride simply
// amortizes the per-dispatch goroutine fan-out (one simulated second per
// dispatch) while still bounding how far lanes drift apart.
const batchTickStride = 1000

// Batch steps N flights on one engine. Construction is struct-of-arrays at
// lane granularity: the batch owns flat per-lane slices (stacks, done flags,
// errors), and TickN advances every live lane up to k physics steps, in
// lane order within fixed-width chunks. The per-lane determinism contract:
// the same Spec + seed produces a bit-identical Result whether run serially
// via Run, as one lane of a 64-lane batch, or at any parallelx pool size.
type Batch struct {
	lanes []*Stack
	done  []bool
	errs  []error
	freed []int // evicted lane slots available for Admit reuse

	started bool
	live    int
}

// NewBatch builds one lane per Spec. A Spec whose Build fails does not abort
// the batch: the lane is born finished with its error recorded, mirroring
// how a campaign treats one bad scenario.
func NewBatch(specs []Spec) *Batch {
	b := &Batch{
		lanes: make([]*Stack, len(specs)),
		done:  make([]bool, len(specs)),
		errs:  make([]error, len(specs)),
	}
	for i, spec := range specs {
		st, err := Build(spec)
		if err != nil {
			b.done[i], b.errs[i] = true, err
			continue
		}
		b.lanes[i] = st
	}
	return b
}

// LaneDone reports whether lane i has finished (normally, with an error, or
// by eviction).
func (b *Batch) LaneDone(i int) bool { return b.done[i] }

// Admit installs an un-started stack as a new lane — reusing an evicted
// slot before growing the batch — and returns its lane index. On a started
// batch the lane is armed immediately (a Start failure finishes it with the
// error recorded, exactly as Start treats a founding lane). Because lanes
// are mutually isolated, a lane admitted mid-flight produces the same
// bit-identical Result it would have produced in a fresh batch: co-tenant
// count, admission order and slot index are all unobservable to it.
//
// Admit and Evict mutate the lane tables and must not run concurrently
// with TickN; fleet servers call both from the single engine goroutine
// that owns the batch.
func (b *Batch) Admit(st *Stack) int {
	var i int
	if n := len(b.freed); n > 0 {
		i = b.freed[n-1]
		b.freed = b.freed[:n-1]
		b.lanes[i], b.done[i], b.errs[i] = st, false, nil
	} else {
		i = len(b.lanes)
		b.lanes = append(b.lanes, st)
		b.done = append(b.done, false)
		b.errs = append(b.errs, nil)
	}
	if st == nil {
		b.done[i], b.errs[i] = true, errors.New("scenario: nil lane")
		return i
	}
	if b.started {
		if err := st.Start(); err != nil {
			b.done[i], b.errs[i] = true, err
		} else {
			b.live++
		}
	}
	return i
}

// Abort finishes a live lane immediately with the given reason, without
// advancing it further; the next Evict returns (nil, reason) since the lane
// never produced a Result. This is the service layer's kill switch — a
// fleet job blowing its wall-clock deadline, or a drain abandoning a lane —
// and like Admit/Evict it must only be called from the goroutine that owns
// the batch. Aborting a finished or evicted lane is a no-op.
func (b *Batch) Abort(i int, reason error) {
	if i < 0 || i >= len(b.lanes) || b.done[i] || b.lanes[i] == nil {
		return
	}
	if reason == nil {
		reason = errors.New("scenario: lane aborted")
	}
	b.done[i], b.errs[i] = true, reason
	if b.started {
		b.live--
	}
}

// LaneSimTimeS reports lane i's current simulated time in seconds (0 for a
// failed-Build or evicted lane) — the progress bookkeeping a resumable job
// host mirrors into its status API between ticks.
func (b *Batch) LaneSimTimeS(i int) float64 {
	if i < 0 || i >= len(b.lanes) || b.lanes[i] == nil {
		return 0
	}
	return b.lanes[i].SimTimeS()
}

// Evict finalizes a finished lane: it returns the lane's outcome, clears
// the slot, and marks it reusable by the next Admit. Evicting a live lane
// is an error (the lane keeps flying). After eviction the lane's Result is
// no longer reachable through Outcomes — the caller owns it.
func (b *Batch) Evict(i int) (*Result, error) {
	if !b.done[i] {
		return nil, errors.New("scenario: evicting a live lane")
	}
	st, err := b.lanes[i], b.errs[i]
	if st == nil && err == nil {
		return nil, errors.New("scenario: lane already evicted")
	}
	var res *Result
	if st != nil {
		res = st.Result()
	}
	b.lanes[i], b.errs[i] = nil, nil
	b.freed = append(b.freed, i)
	return res, err
}

// Start arms every lane without advancing simulated time. A lane whose
// Start fails finishes immediately with its error recorded.
func (b *Batch) Start() {
	if b.started {
		return
	}
	b.started = true
	for i, st := range b.lanes {
		if b.done[i] {
			continue
		}
		if err := st.Start(); err != nil {
			b.done[i], b.errs[i] = true, err
		}
	}
	b.recount()
}

// TickN advances every live lane by up to k physics steps (fewer if the lane
// finishes) in one parallel dispatch, and returns the physics steps taken,
// summed over lanes; zero means no lane was left flying. Lane chunks fan
// through parallelx; within a chunk lanes step in lane order. Because lanes
// never interact, the interleaving granularity is unobservable in any lane's
// Result.
func (b *Batch) TickN(k int) (steps int) {
	if !b.started {
		b.Start()
	}
	if b.live == 0 {
		return 0
	}
	n := len(b.lanes)
	if parallelx.PoolSize() <= 1 || n <= BatchChunkLanes {
		steps = b.tickRange(0, n, k)
	} else {
		for _, s := range parallelx.MapChunks(n, BatchChunkLanes, func(ci, lo, hi int) int {
			return b.tickRange(lo, hi, k)
		}) {
			steps += s
		}
	}
	b.recount()
	return steps
}

// tickRange steps lanes [lo, hi) by up to k ticks each and returns the steps
// taken. Chunks touch disjoint lane index ranges, so concurrent calls are
// race-free.
func (b *Batch) tickRange(lo, hi, k int) (steps int) {
	for i := lo; i < hi; i++ {
		if b.done[i] {
			continue
		}
		st := b.lanes[i]
		for j := 0; j < k; j++ {
			steps++ // every Tick of a live lane takes one physics step
			if done, err := st.Tick(); done {
				b.done[i], b.errs[i] = true, err
				break
			}
		}
	}
	return steps
}

func (b *Batch) recount() {
	live := 0
	for _, d := range b.done {
		if !d {
			live++
		}
	}
	b.live = live
}

// Run drives the batch to completion and returns the per-lane outcomes in
// lane order. A lane's Result is nil exactly when its error is non-nil.
func (b *Batch) Run() ([]*Result, []error) {
	for b.TickN(batchTickStride) > 0 {
	}
	return b.Outcomes()
}

// Outcomes returns the per-lane results and errors accumulated so far.
func (b *Batch) Outcomes() ([]*Result, []error) {
	results := make([]*Result, len(b.lanes))
	for i, st := range b.lanes {
		if st != nil {
			results[i] = st.Result()
		}
	}
	return results, b.errs
}

// RunBatch builds and flies one lane per Spec on the batch engine — the
// N-flight sibling of Run.
func RunBatch(specs []Spec) ([]*Result, []error) {
	return NewBatch(specs).Run()
}
