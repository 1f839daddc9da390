package fleet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dronedse/fleet/journal"
	"dronedse/groundstation"
	"dronedse/scenario"
)

// Sentinel errors the HTTP layer maps onto status codes (429/503 with
// Retry-After) and clients classify as transient.
var (
	// ErrShutdown: the server has shut down and accepts nothing.
	ErrShutdown = errors.New("fleet: server shut down")
	// ErrDraining: the server is draining; submissions are refused but
	// in-flight jobs are finishing. Clients should retry against the
	// replacement instance.
	ErrDraining = errors.New("fleet: server draining")
	// ErrQueueFull: the bounded admission queue is at capacity; retry after
	// backoff instead of growing server memory without bound.
	ErrQueueFull = errors.New("fleet: admission queue full")
	// ErrDeadline: the job exceeded its wall-clock deadline and was evicted
	// mid-flight (journaled as CANCEL, not re-admitted on restart).
	ErrDeadline = errors.New("fleet: job deadline exceeded")
	// ErrBadSpec: a submitted JobSpec failed validation (unknown workload
	// kind, malformed workload payload). A tenant error, mapped to 400 —
	// never a retry.
	ErrBadSpec = errors.New("fleet: invalid job spec")
)

// Config sizes a Server. The zero value is a usable single-box default.
type Config struct {
	// MaxLanes caps concurrently flying lanes (default 1024). Jobs beyond
	// the cap queue FIFO and are admitted as eviction frees slots.
	MaxLanes int
	// MaxQueue bounds the admission queue (jobs accepted but not yet
	// launched; default 4096). Submissions beyond it fail with ErrQueueFull
	// — HTTP 429 + Retry-After — instead of growing memory without bound.
	MaxQueue int
	// SubQueue is the per-subscriber telemetry queue depth in units
	// (default groundstation.DefaultSubQueue). Laggards shed oldest.
	SubQueue int
	// JobDeadline is the default wall-clock budget a job gets from launch
	// (0 = unlimited). A job that blows it is evicted mid-flight with
	// ErrDeadline. JobSpec.DeadlineS overrides it per job.
	JobDeadline time.Duration
	// DropArtifacts releases each finished job's flight stack — log and
	// trajectory included — after digesting (scenario.Result.Release),
	// keeping only the summary and digests: the 10k+ lane benchmark
	// configuration. Later jobs' Builds re-initialise the released stacks.
	// Result-returning APIs then serve a summary-only Result.
	DropArtifacts bool
}

func (c Config) withDefaults() Config {
	if c.MaxLanes <= 0 {
		c.MaxLanes = 1024
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4096
	}
	return c
}

// tickStride is how many physics steps each Run advance moves every live
// lane: one 4 Hz telemetry unit per lane per advance at the default cadence.
const tickStride = 250

// job is the server-side record of one submitted flight.
type job struct {
	id   uint64
	spec JobSpec
	hub  *groundstation.Hub

	// deadline is the wall-clock eviction point (zero = none). Written at
	// launch and read at harvest, both on the engine goroutine.
	deadline time.Time

	// Mutable under Server.mu.
	state    JobState
	res      *scenario.Result
	err      error
	dig      *Digests
	sum      *JobSummary
	simTimeS float64 // live progress, mirrored out of the engine each advance
}

// Server hosts concurrent simulation jobs. Exactly one goroutine may drive
// the engine — either Run or a manual Advance loop — while any number of
// goroutines submit jobs, query status, and stream telemetry.
type Server struct {
	cfg Config
	jl  *journal.Log // nil = no durability (in-memory only)

	mu       sync.Mutex
	jobs     map[uint64]*job
	order    []uint64 // submission order, for listing
	queue    []*job   // admission FIFO
	reserved int      // queue slots held by in-flight SubmitAll journal writes
	nextID   uint64
	closed   bool
	draining bool
	conns    map[net.Conn]struct{} // live telemetry connections

	// Engine-owned (no mu): only the Advance caller touches the batch and
	// the lane table, one entry per batch lane slot holding that slot's job
	// (nil while the slot is free).
	batch *scenario.Batch
	lanes []*job

	// Step counters, read by Stats while the engine advances.
	ticks     atomic.Uint64
	laneSteps atomic.Uint64

	// Counter fields under mu. live is the occupied-lane count mirrored
	// out of the engine-owned lane table so Stats never reads it.
	completed, failed, peakLive, live int

	// subWG tracks telemetry-serving goroutines so Shutdown can wait for
	// subscribers to flush before force-closing their connections.
	subWG sync.WaitGroup

	wake        chan struct{}
	quit        chan struct{}
	engineDone  chan struct{}
	runStarted  atomic.Bool
	engineLive  atomic.Bool
	reqShutdown chan struct{}
	reqOnce     sync.Once
}

// New builds an idle server; drive it with Run (or Advance) plus the
// Handler/ServeTelemetry front ends.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		batch:       scenario.NewBatch(nil),
		jobs:        make(map[uint64]*job),
		conns:       make(map[net.Conn]struct{}),
		wake:        make(chan struct{}, 1),
		quit:        make(chan struct{}),
		engineDone:  make(chan struct{}),
		reqShutdown: make(chan struct{}),
	}
	return s
}

// NewJournaled builds a server whose accepted jobs survive crashes: the
// write-ahead log under dir is opened (created if absent), its torn tail
// truncated, and its records replayed — terminal jobs come back with their
// journaled digests and summaries; jobs without a terminal record are
// re-admitted and re-flown, producing digests bit-identical to what an
// uninterrupted run would have written (recovery is deterministic replay).
// The returned Recovery reports what was found.
func NewJournaled(cfg Config, dir string) (*Server, *Recovery, error) {
	jl, rec, err := openJournal(dir)
	if err != nil {
		return nil, nil, err
	}
	s := New(cfg)
	s.jl = jl
	s.mu.Lock()
	for _, rj := range rec.Jobs {
		j := &job{id: rj.ID, spec: rj.Spec, hub: groundstation.NewHub()}
		switch {
		case !rj.Done:
			j.state = JobQueued
			s.queue = append(s.queue, j)
		case rj.Err != "":
			j.state, j.err, j.dig, j.sum = JobFailed, errors.New(rj.Err), rj.Digests, rj.Summary
			s.failed++
			j.hub.Close()
		default:
			j.state, j.dig, j.sum = JobDone, rj.Digests, rj.Summary
			s.completed++
			j.hub.Close()
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	if rec.maxID > s.nextID {
		s.nextID = rec.maxID
	}
	s.mu.Unlock()
	return s, rec, nil
}

// Journal returns the server's write-ahead log (nil when running without
// durability).
func (s *Server) Journal() *journal.Log { return s.jl }

// SubmitAll enqueues jobs in order and returns their IDs. Each job's
// telemetry hub exists from submission, so clients may subscribe before the
// flight launches. With a journal, every job is fsync'd durable BEFORE this
// returns: an acknowledged submission survives SIGKILL from that moment on.
// Returns ErrBadSpec when any job fails validation (the whole batch is
// refused — no partial acceptance), ErrQueueFull when the bounded admission
// queue cannot take the batch, ErrDraining / ErrShutdown when the server no
// longer accepts work.
func (s *Server) SubmitAll(specs []JobSpec) ([]uint64, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("%w: job %d: %v", ErrBadSpec, i, err)
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if depth := len(s.queue) + s.reserved; depth+len(specs) > s.cfg.MaxQueue {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d queued + %d submitted > %d",
			ErrQueueFull, depth, len(specs), s.cfg.MaxQueue)
	}
	jobs := make([]*job, len(specs))
	ids := make([]uint64, len(specs))
	for i, spec := range specs {
		s.nextID++
		jobs[i] = &job{id: s.nextID, spec: spec, hub: groundstation.NewHub()}
		ids[i] = s.nextID
	}
	s.reserved += len(specs)
	s.mu.Unlock()

	// Durability point: the SUBMIT records hit disk before the jobs become
	// visible anywhere. A crash after this line loses nothing; a crash
	// before it means the client never got its IDs back.
	if s.jl != nil {
		if err := appendSubmits(s.jl, jobs); err != nil {
			s.mu.Lock()
			s.reserved -= len(specs)
			s.mu.Unlock()
			return nil, fmt.Errorf("fleet: journal submit: %w", err)
		}
	}
	failpoint("fleet/submit-journaled")

	s.mu.Lock()
	s.reserved -= len(specs)
	if s.closed {
		// Shut down between the journal fsync and admission: the jobs are
		// durable and will be re-admitted on the next start, but this
		// instance cannot run them.
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	for _, j := range jobs {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.queue = append(s.queue, j)
	}
	s.mu.Unlock()
	s.wakeEngine()
	return ids, nil
}

func (s *Server) wakeEngine() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// admitLocked drains the queue into free lanes: build the stack, install
// the telemetry hub as the Spec's sink, and admit it into the batch. A
// Build failure fails the job without consuming a lane. Called only from
// the engine goroutine (holding mu), so the lane table is safe to touch.
// During a drain (or after shutdown) nothing launches: queued jobs stay
// journaled for the next start.
func (s *Server) admitLocked() {
	for len(s.queue) > 0 && s.live < s.cfg.MaxLanes && !s.draining && !s.closed {
		j := s.queue[0]
		s.queue = s.queue[1:]
		spec := j.spec.Scenario()
		hub := j.hub
		spec.Telemetry.Send = func(raw []byte) { hub.Publish(raw) }
		st, err := scenario.Build(spec)
		if err != nil {
			s.failLocked(j, err)
			continue
		}
		lane := s.batch.Admit(st)
		if lane == len(s.lanes) { // a new slot, not a reused one
			s.lanes = append(s.lanes, nil)
		}
		if s.batch.LaneDone(lane) { // Start failed on a running batch
			_, err := s.batch.Evict(lane)
			s.failLocked(j, err)
			continue
		}
		if ddl := j.deadlineBudget(s.cfg.JobDeadline); ddl > 0 {
			j.deadline = time.Now().Add(ddl)
		}
		s.lanes[lane] = j
		j.state = JobRunning
		s.live++
	}
	if s.live > s.peakLive {
		s.peakLive = s.live
	}
}

// deadlineBudget resolves a job's wall-clock budget: per-spec override,
// else the server default.
func (j *job) deadlineBudget(def time.Duration) time.Duration {
	if j.spec.DeadlineS > 0 {
		return time.Duration(j.spec.DeadlineS * float64(time.Second))
	}
	return def
}

// failLocked records a job that never reached a lane (Build/Start failure)
// as terminal, journaling the outcome so a restart does not retry a spec
// that deterministically cannot fly.
func (s *Server) failLocked(j *job, err error) {
	if s.jl != nil {
		// Rare path (malformed spec); the fsync under mu is acceptable.
		appendDone(s.jl, j.id, nil, nil, err)
	}
	j.state, j.err = JobFailed, err
	s.failed++
	j.hub.Close()
}

// finalize records a lane's outcome on its job and closes the telemetry
// stream (subscribers drain what is queued, then see EOF). With a journal,
// the terminal record is fsync'd before the outcome becomes visible: a
// crash before the fsync re-runs the job on restart (deterministically
// reproducing these digests); a crash after it recovers the digests
// directly.
func (s *Server) finalize(j *job, res *scenario.Result, err error) {
	failpoint("fleet/harvested")
	var dig *Digests
	var sum *JobSummary
	if err == nil && res != nil {
		d := DigestResult(res)
		dig = &d
		sum = &JobSummary{
			FlightTimeS:          res.FlightTimeS,
			EnergyWh:             res.EnergyWh,
			ComputeWh:            res.ComputeWh,
			ComputeFlightCostMin: res.ComputeFlightCostMin(),
			Completed:            res.Completed,
			FinalMode:            res.FinalMode.String(),
		}
		if s.cfg.DropArtifacts {
			res.Release() // digested; the next Build re-initialises its stack
		}
	}
	if s.jl != nil {
		// A journal write failure here does not block the in-memory outcome
		// (clients are not left waiting on a dead disk); it surfaces through
		// Ready() so the instance stops admitting new work.
		if errors.Is(err, ErrDeadline) {
			appendCancel(s.jl, j.id, err.Error())
		} else {
			appendDone(s.jl, j.id, dig, sum, err)
		}
	}
	failpoint("fleet/done-journaled")
	s.mu.Lock()
	j.res, j.err, j.dig, j.sum = res, err, dig, sum
	s.live--
	if err != nil {
		j.state = JobFailed
		s.failed++
	} else {
		j.state = JobDone
		s.completed++
	}
	s.mu.Unlock()
	j.hub.Close()
}

// Advance is the engine's unit of work: admit queued jobs into free lanes,
// step every live lane by up to k physics steps, and harvest finished
// lanes (evicting any job past its wall-clock deadline) in lane order, so
// lanes finishing in the same advance are journaled in a fixed order. It
// reports whether the engine still has runnable work. Run is Advance in a
// loop; tests and benchmarks call it directly for lockstep control. Only
// one goroutine may call Advance.
func (s *Server) Advance(k int) bool {
	s.mu.Lock()
	s.admitLocked()
	busy := s.live > 0
	s.mu.Unlock()

	if busy {
		now := time.Now()
		s.laneSteps.Add(uint64(s.batch.TickN(k)))
		for lane, j := range s.lanes {
			if j == nil {
				continue
			}
			if !s.batch.LaneDone(lane) {
				if j.deadline.IsZero() || now.Before(j.deadline) {
					continue
				}
				s.batch.Abort(lane, fmt.Errorf("%w (%.0fs wall-clock)",
					ErrDeadline, now.Sub(j.deadline.Add(-j.deadlineBudget(s.cfg.JobDeadline))).Seconds()))
			}
			res, err := s.batch.Evict(lane)
			s.lanes[lane] = nil
			s.finalize(j, res, err)
		}
		s.mu.Lock() // mirror live progress into the status API
		for lane, j := range s.lanes {
			if j != nil {
				j.simTimeS = s.batch.LaneSimTimeS(lane)
			}
		}
		s.mu.Unlock()
	}
	s.ticks.Add(1)

	s.mu.Lock()
	runnable := len(s.queue) > 0 && !s.draining && !s.closed
	s.mu.Unlock()
	return busy || runnable
}

// Run drives the engine until Shutdown, sleeping while there is no work.
// It may be called once.
func (s *Server) Run() {
	if !s.runStarted.CompareAndSwap(false, true) {
		return
	}
	s.engineLive.Store(true)
	defer func() {
		s.engineLive.Store(false)
		close(s.engineDone)
	}()
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		if !s.Advance(tickStride) {
			select {
			case <-s.quit:
				return
			case <-s.wake:
			}
		}
	}
}

// DrainReport summarizes a graceful drain.
type DrainReport struct {
	// Completed/Failed are the totals at exit.
	Completed, Failed int
	// Requeued jobs were accepted but never launched; with a journal they
	// are durable and the next start re-admits them.
	Requeued int
	// Abandoned lanes were still flying when the grace period expired;
	// journaled jobs re-run from scratch on the next start (bit-identical
	// digests), un-journaled ones are lost.
	Abandoned int
	// Journaled reports whether Requeued/Abandoned jobs survive the exit.
	Journaled bool
}

// Clean reports whether every launched job finished within the grace
// period.
func (r DrainReport) Clean() bool { return r.Abandoned == 0 }

// Lost reports how many accepted jobs this exit abandons forever (always 0
// with a journal).
func (r DrainReport) Lost() int {
	if r.Journaled {
		return 0
	}
	return r.Requeued + r.Abandoned
}

// Drain is the graceful SIGTERM path: stop accepting and launching jobs,
// let in-flight lanes finish (bounded by grace, default 30s), then shut
// down. Queued and unfinished jobs stay durably journaled for the next
// start; with no journal they are reported in the DrainReport as lost.
// The engine (Run) must be live for lanes to finish.
func (s *Server) Drain(grace time.Duration) DrainReport {
	if grace <= 0 {
		grace = 30 * time.Second
	}
	s.mu.Lock()
	if !s.closed {
		s.draining = true
	}
	s.mu.Unlock()
	s.wakeEngine()

	deadline := time.Now().Add(grace)
	for {
		s.mu.Lock()
		live := s.live
		s.mu.Unlock()
		if live == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	s.mu.Lock()
	rep := DrainReport{
		Completed: s.completed,
		Failed:    s.failed,
		Requeued:  len(s.queue),
		Abandoned: s.live,
		Journaled: s.jl != nil,
	}
	s.mu.Unlock()
	s.Shutdown()
	return rep
}

// subscriberFlushGrace bounds how long Shutdown waits for telemetry
// subscribers to drain their queued units before force-closing their
// connections. A reading subscriber flushes in milliseconds; a stalled one
// is cut at the deadline.
const subscriberFlushGrace = 2 * time.Second

// Shutdown stops the service in EOF-clean order: stop admissions, stop the
// engine loop and wait for it to fully drain (no goroutine is mid-Publish
// afterwards), then close every job's telemetry hub so subscribers drain
// their queues to a clean, frame-aligned EOF, and only then — after a
// bounded flush grace — force-close whatever connections remain (stalled
// subscribers). Queued jobs stay queued; running lanes stop where they are
// (journaled jobs replay on the next start). Idempotent.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()

	close(s.quit)
	s.wakeEngine()
	if s.runStarted.Load() {
		<-s.engineDone // engine goroutine fully drained: publishing has ended
	}

	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.hub.Close() // subscribers drain queued units, then see EOF
	}

	flushed := make(chan struct{})
	go func() { s.subWG.Wait(); close(flushed) }()
	select {
	case <-flushed:
	case <-time.After(subscriberFlushGrace):
	}

	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	if s.jl != nil {
		s.jl.Close()
	}
	s.requestShutdown()
}

// Ready returns nil when the instance should receive traffic: accepting
// work (not shut down or draining), engine loop live, and the journal (if
// any) still writable. The /readyz endpoint serves it.
func (s *Server) Ready() error {
	s.mu.Lock()
	closed, draining := s.closed, s.draining
	s.mu.Unlock()
	if closed {
		return ErrShutdown
	}
	if draining {
		return ErrDraining
	}
	if !s.engineLive.Load() {
		return errors.New("fleet: engine loop not running")
	}
	if s.jl != nil {
		if err := s.jl.Healthy(); err != nil {
			return fmt.Errorf("fleet: journal unwritable: %w", err)
		}
	}
	return nil
}

// ShutdownRequested is closed when a client posts /shutdown (or Shutdown
// runs); process mains select on it to exit.
func (s *Server) ShutdownRequested() <-chan struct{} { return s.reqShutdown }

func (s *Server) requestShutdown() { s.reqOnce.Do(func() { close(s.reqShutdown) }) }

// statusLocked renders a job's API view. A finished job's summary fields
// come from its JobSummary — set by finalize, or read back from the DONE
// record for a job recovered from the journal — so both serve the same
// bytes.
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{ID: j.id, State: j.state.String(), Spec: j.spec}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.sum != nil {
		st.FlightTimeS = j.sum.FlightTimeS
		st.EnergyWh = j.sum.EnergyWh
		st.ComputeWh = j.sum.ComputeWh
		st.ComputeFlightCostMin = j.sum.ComputeFlightCostMin
		st.Completed = j.sum.Completed
		st.FinalMode = j.sum.FinalMode
	}
	if j.state == JobRunning {
		st.SimTimeS = j.simTimeS
	}
	st.Digests = j.dig
	return st
}

// Job returns a job's status snapshot.
func (s *Server) Job(id uint64) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(j), true
}

// Jobs returns every job's status, in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Result returns a finished job's structured outcome — the same Result a
// direct scenario.Run would have produced (summary-only when the server
// runs with DropArtifacts; nil for a completed job recovered from the
// journal, whose digests and summary survive but whose artifacts were never
// rebuilt).
func (s *Server) Result(id uint64) (*scenario.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, errors.New("fleet: unknown job")
	}
	if !j.state.Terminal() {
		return nil, errors.New("fleet: job still in flight")
	}
	return j.res, j.err
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Submitted: len(s.order),
		Queued:    len(s.queue),
		Live:      s.live,
		PeakLive:  s.peakLive,
		Completed: s.completed,
		Failed:    s.failed,
		Draining:  s.draining,
		Ticks:     s.ticks.Load(),
		LaneSteps: s.laneSteps.Load(),
	}
	for _, j := range s.jobs {
		pub, drop, subs := j.hub.Stats()
		st.FramesPublished += pub
		st.FramesDropped += drop
		st.Subscribers += subs
		st.TelemetryBacklog += j.hub.Backlog()
	}
	return st
}
