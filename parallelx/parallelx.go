// Package parallelx is the repo's shared fan-out engine: a bounded worker
// pool with deterministic, input-ordered map-reduce primitives. Every
// compute-heavy layer (the core design-space sweeps, the bench figure
// generators and their per-sequence SLAM runs, the microarch trace sims)
// fans out through it, so one knob — the pool size — governs the whole
// pipeline's parallelism.
//
// Determinism contract: all primitives write each result into the slot of
// the input that produced it, so output order is the input order regardless
// of completion order. With a pure worker function, output at any pool size
// is identical to PoolSize=1 (the serial path, which runs inline without
// spawning goroutines).
package parallelx

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
)

// poolSize is the process-wide default worker count.
var poolSize atomic.Int64

func init() { poolSize.Store(int64(runtime.NumCPU())) }

// PoolSize returns the current default worker count.
func PoolSize() int { return int(poolSize.Load()) }

// SetPoolSize sets the default worker count and returns the previous value.
// Values below 1 are clamped to 1 (the serial path). Commands expose this as
// their -procs flag.
func SetPoolSize(n int) int {
	if n < 1 {
		n = 1
	}
	return int(poolSize.Swap(int64(n)))
}

// workers returns the number of goroutines to use for n items.
func workers(n int) int {
	w := PoolSize()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// itemRunner executes one item of a fan-out batch. The concrete runners
// (mapJob, chunkJob) hold the batch state, so a *job plus its runner form a
// reusable arena: pooling them keeps fan-out allocations independent of the
// pool size.
type itemRunner interface{ item(i int) }

// job is one fan-out batch handed to the persistent workers: items [0, n)
// are claimed with an atomic cursor, so at most poolSize goroutines (the
// submitting caller plus the workers that picked the job up) execute it and
// every index runs exactly once. The WaitGroup counts completed items, not
// participating goroutines; exited counts workers that fully left run().
// dispatch returns only once every posted invite has been consumed and its
// taker has exited — the quiescence proof that makes unconditional arena
// reuse race-free.
type job struct {
	r      itemRunner
	n      int64
	next   atomic.Int64
	exited atomic.Int64
	wg     sync.WaitGroup
}

// run claims and executes items until the job is drained.
func (j *job) run() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.r.item(int(i))
		j.wg.Done()
	}
}

// jobs is the hand-off channel the persistent workers receive on. Posting
// is always non-blocking (a full channel just means fewer workers join and
// the caller does more of the work itself), so a worker that submits a
// nested fan-out can never deadlock the pool.
var jobs = make(chan *job, 1024)

// FreeList is a GC-stable free list: a mutexed LIFO slice that retains at
// most the number of objects its constructor fixes. sync.Pool would fit,
// but every garbage collection drops its contents, so warm callers would
// regrow what they pooled at a rate set by the collector; for fan-out
// arenas the refill also scales with how many jobs run at once, i.e. with
// the pool size, exactly the dependence the allocs-vs-pool benchmarks
// forbid (DESIGN §13). The cap bounds retention: Put on a full list lets
// the object go, and Get on an empty one reports false so the caller builds
// a fresh object. Only objects nothing else touches any more may be Put.
type FreeList[T any] struct {
	mu    sync.Mutex
	free  []T
	limit int
}

// NewFreeList returns an empty free list that retains at most limit
// objects.
func NewFreeList[T any](limit int) *FreeList[T] { return &FreeList[T]{limit: limit} }

// Get pops the most recently returned object, or reports false when the
// list is empty.
func (l *FreeList[T]) Get() (T, bool) {
	var zero T
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return zero, false
	}
	v := l.free[n-1]
	l.free[n-1] = zero
	l.free = l.free[:n-1]
	return v, true
}

// Put returns v to the list, or lets it go when the list is full.
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	if len(l.free) < l.limit {
		l.free = append(l.free, v)
	}
	l.mu.Unlock()
}

// maxFreeJobs bounds each runner type's free list; deeper nesting than this
// just allocates a fresh arena. The retained arenas are a few words each:
// their payload slices are cleared before Put.
const maxFreeJobs = 64

// freeLists maps a recycled object's type to its free list. Generic
// instantiations cannot declare package-level lists, so the lists of the
// generic mapJob[R] arenas and Recording[T] chunks live here, keyed by type.
var freeLists sync.Map // reflect.Type -> *FreeList[T]

// freeListOf returns the free list for T, retaining at most limit objects
// (keyed by a nil typed pointer, so the lookup itself never allocates).
func freeListOf[T any](limit int) *FreeList[T] {
	t := reflect.TypeOf((*T)(nil))
	if l, ok := freeLists.Load(t); ok {
		return l.(*FreeList[T])
	}
	l, _ := freeLists.LoadOrStore(t, NewFreeList[T](limit))
	return l.(*FreeList[T])
}

// spawned counts the persistent workers started so far. Workers are spawned
// lazily up to the pool size in effect at submission time and then parked
// on the jobs channel forever: fan-out cost no longer includes per-call
// goroutine creation, which is what made allocs/op grow with the pool size.
var (
	spawned atomic.Int64
	spawnMu sync.Mutex
)

// maxWorkers bounds the persistent worker count however large SetPoolSize
// arguments get.
const maxWorkers = 512

// ensureWorkers makes sure at least w persistent workers exist.
func ensureWorkers(w int) {
	if w > maxWorkers {
		w = maxWorkers
	}
	if int(spawned.Load()) >= w {
		return
	}
	spawnMu.Lock()
	defer spawnMu.Unlock()
	for int(spawned.Load()) < w {
		spawned.Add(1)
		go func() {
			for j := range jobs {
				j.run()
				j.exited.Add(1)
			}
		}()
	}
}

// dispatch runs a prepared job of n items at parallelism w: up to w-1
// persistent workers are invited (non-blocking), the caller participates,
// and the call returns once every item has completed AND the job is
// quiescent — every posted invite consumed (drained by the caller or taken
// by a worker) and every worker that took one fully exited. Quiescence on
// return is what lets callers unconditionally recycle the arena, keeping
// fan-out allocations exactly independent of the pool size. The wait is
// bounded: the job is already drained when it starts, so a worker that
// holds an invite runs zero items and exits immediately; an invite still in
// the channel is received by the drain loop itself. The caller's
// participation plus the never-blocking post remain the no-deadlock
// guarantee for nested fan-outs.
func (j *job) dispatch(n, w int) {
	j.n = int64(n)
	j.next.Store(0)
	j.exited.Store(0)
	j.wg.Add(n)
	ensureWorkers(w - 1)
	posted := 0
post:
	for k := 0; k < w-1; k++ {
		select {
		case jobs <- j:
			posted++
		default:
			break post
		}
	}
	j.run()
	j.wg.Wait()
	// Quiesce. A foreign invite that surfaces while draining is re-posted;
	// if the channel is full we stand in for the worker it would have
	// reached instead (run + exited), so no submitter ever loses an invite
	// and spins forever waiting for it.
	drained := 0
	for j.exited.Load() != int64(posted-drained) {
		select {
		case j2 := <-jobs:
			if j2 == j {
				drained++
				continue
			}
			select {
			case jobs <- j2:
			default:
				j2.run()
				j2.exited.Add(1)
			}
		default:
			runtime.Gosched()
		}
	}
}

// mapJob is the pooled arena for one MapIndex fan-out.
type mapJob[R any] struct {
	out []R
	fn  func(i int) R
	j   job
}

func (m *mapJob[R]) item(i int) { m.out[i] = m.fn(i) }

// MapIndex computes fn(0..n-1) across the pool and returns the results in
// index order. fn must be safe for concurrent invocation; each index is
// evaluated exactly once.
func MapIndex[R any](n int, fn func(i int) R) []R {
	if n <= 0 {
		return nil
	}
	out := make([]R, n)
	w := workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	l := freeListOf[*mapJob[R]](maxFreeJobs)
	m, ok := l.Get()
	if !ok {
		m = &mapJob[R]{}
		m.j.r = m
	}
	m.out, m.fn = out, fn
	m.j.dispatch(n, w)
	m.out, m.fn = nil, nil
	l.Put(m)
	return out
}

// Map applies fn to every item across the pool, returning results in input
// order.
func Map[T, R any](items []T, fn func(T) R) []R {
	return MapIndex(len(items), func(i int) R { return fn(items[i]) })
}

// FilterMap applies fn to every item and keeps, in input order, the results
// for which fn returned ok. It is the shape of a grid sweep that skips
// infeasible points: the kept subsequence is identical to the serial loop's.
func FilterMap[T, R any](items []T, fn func(T) (R, bool)) []R {
	type slot struct {
		v  R
		ok bool
	}
	slots := MapIndex(len(items), func(i int) slot {
		v, ok := fn(items[i])
		return slot{v, ok}
	})
	out := make([]R, 0, len(items))
	for _, s := range slots {
		if s.ok {
			out = append(out, s.v)
		}
	}
	return out
}

// MapChunks splits [0, n) into fixed-length chunks — ceil(n/chunk) of them,
// the last possibly short — and computes fn(ci, lo, hi) for each across the
// pool, returning the results in chunk order. Unlike ChunkIndex, the chunk
// boundaries depend only on n and chunk, never on the pool size, so banded
// kernels (e.g. row-band feature detection) whose per-chunk results are
// concatenated produce identical merged output at every pool size.
func MapChunks[R any](n, chunk int, fn func(ci, lo, hi int) R) []R {
	if n <= 0 {
		return nil
	}
	if chunk < 1 {
		chunk = 1
	}
	out := make([]R, (n+chunk-1)/chunk)
	ForChunks(n, chunk, func(ci, lo, hi int) { out[ci] = fn(ci, lo, hi) })
	return out
}

// ChunkIndex splits [0, n) into one contiguous chunk per worker and calls
// fn(lo, hi) for each. Use it for grid sweeps whose per-index work is too
// cheap to schedule individually; fn chunks must write only to their own
// index range.
func ChunkIndex(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := workers(n)
	if w == 1 {
		fn(0, n)
		return
	}
	chunk := (n + w - 1) / w
	runChunks(n, chunk, w, fn, nil)
}

// ForChunks is MapChunks for a fn that stores its own results: it calls
// fn(ci, lo, hi) for each fixed-length chunk of [0, n) across the pool and
// returns when all have finished. It allocates nothing once the pool is
// warm, so a steady-state caller that keeps per-chunk results in a slice of
// its own, indexed by ci, fans out without garbage.
func ForChunks(n, chunk int, fn func(ci, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	w := workers((n + chunk - 1) / chunk)
	if w == 1 {
		for lo, ci := 0, 0; lo < n; lo, ci = lo+chunk, ci+1 {
			fn(ci, lo, min(lo+chunk, n))
		}
		return
	}
	runChunks(n, chunk, w, nil, fn)
}

// runChunks fans the chunks of [0, n) out at parallelism w through a pooled
// arena, calling span(lo, hi) or, when span is nil, indexed(ci, lo, hi).
func runChunks(n, chunk, w int, span func(lo, hi int), indexed func(ci, lo, hi int)) {
	c, ok := chunkJobs.Get()
	if !ok {
		c = &chunkJob{}
		c.j.r = c
	}
	c.n, c.chunk, c.span, c.indexed = n, chunk, span, indexed
	c.j.dispatch((n+chunk-1)/chunk, w)
	c.span, c.indexed = nil, nil
	chunkJobs.Put(c)
}

// chunkJob is the pooled arena for one ChunkIndex or ForChunks fan-out.
type chunkJob struct {
	n, chunk int
	span     func(lo, hi int)
	indexed  func(ci, lo, hi int)
	j        job
}

var chunkJobs = NewFreeList[*chunkJob](maxFreeJobs)

func (c *chunkJob) item(ci int) {
	lo := ci * c.chunk
	hi := min(lo+c.chunk, c.n)
	if c.span != nil {
		c.span(lo, hi)
	} else {
		c.indexed(ci, lo, hi)
	}
}

// Do runs the thunks concurrently (bounded by the pool) and returns when all
// have finished. Each thunk must write only to its own destinations.
func Do(fns ...func()) {
	MapIndex(len(fns), func(i int) struct{} {
		fns[i]()
		return struct{}{}
	})
}
