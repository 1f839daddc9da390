package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dronedse/fleet"
	"dronedse/fleet/journal"
	"dronedse/mission"
	"dronedse/scenario"
)

const (
	// shortGoldenJobs is how many leading fleet_short jobs the golden
	// digest-of-digests covers (and so how many jobs every run makes).
	shortGoldenJobs = 64
	// campaignJobs is the fleet_long campaign size at scale 1.
	campaignJobs = 128
	// campaignSeconds bounds fleet_long and fault_campaign flights at
	// scale 1.
	campaignSeconds = 60
	// refly is how many finished jobs a run flies again with scenario.Run
	// to check the server's digests.
	refly = 8
	// probeJobs caps how many jobs the traced run re-times the hidden
	// layers (validate, build, journal append) on.
	probeJobs = 256
)

// longKinds are the workload kinds a fleet_long campaign cycles through.
var longKinds = []string{"box", "hover", "coverage", "delivery", "follow"}

// shortSpec is fleet_short job i: a one-second box flight whose wind and
// pack cycle so consecutive jobs differ.
func shortSpec(base int64, i int) fleet.JobSpec {
	return fleet.JobSpec{
		Seed:         base + int64(i),
		MaxSeconds:   1,
		WindMeanMS:   float64(2 * (i % 4)),
		BatteryCells: 3 + i%3,
	}
}

// fleetSession is one in-process fleetd, wired as cmd/fleetd wires it,
// plus the single closed-loop client that drives it.
type fleetSession struct {
	cfg  config
	long bool
	tr   *tracer
	dir  string

	srv       *fleet.Server
	hs        *http.Server
	transport *http.Transport
	client    *fleet.Client
	telemAddr string
	serving   sync.WaitGroup

	// The traced engine loop records into engineTr once set-up is done and
	// stops when stopEngine closes (both nil untraced).
	engineTr   atomic.Pointer[tracer]
	stopEngine chan struct{}
	engineDone chan struct{}

	jobs []jobRef // every job submitted in the window, in order
	// base is the server's state after the warm-up job.
	base        fleet.Stats
	journalBase int64
}

type jobRef struct {
	id   uint64
	spec fleet.JobSpec
}

// setupFleet returns the set-up for fleet_short (long false) or
// fleet_long. Set-up ends once /readyz answers 200 and one warm-up job
// has streamed to EOF. A traced session drives the engine with its own
// Advance loop so engine time can be split into busy and idle spans.
func setupFleet(long bool) func(cfg config, tr *tracer) (session, error) {
	return func(cfg config, tr *tracer) (session, error) {
		dir, err := os.MkdirTemp("", "benchmark-fleet-")
		if err != nil {
			return nil, err
		}
		// fleetd's -lite configuration: a finished job keeps its digests and
		// summary but not its log, trace and trajectory. With artifacts kept
		// every job retains its reserved buffers (about 200 KiB for a
		// one-second flight), and a ten-second fleet_short window would
		// hold about a gigabyte.
		srv, _, err := fleet.NewJournaled(fleet.Config{DropArtifacts: true}, dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		httpLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Shutdown()
			os.RemoveAll(dir)
			return nil, err
		}
		telemLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			httpLn.Close()
			srv.Shutdown()
			os.RemoveAll(dir)
			return nil, err
		}
		transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		s := &fleetSession{
			cfg: cfg, long: long, dir: dir, srv: srv,
			hs: &http.Server{
				Handler:           http.MaxBytesHandler(srv.Handler(), 64<<20),
				ReadHeaderTimeout: 5 * time.Second,
				ReadTimeout:       30 * time.Second,
				WriteTimeout:      60 * time.Second,
				IdleTimeout:       2 * time.Minute,
			},
			transport: transport,
			client: &fleet.Client{
				Base:       "http://" + httpLn.Addr().String(),
				HTTPClient: &http.Client{Transport: transport},
			},
			telemAddr: telemLn.Addr().String(),
		}
		if tr == nil {
			go srv.Run() // ends when Shutdown waits for it
		} else {
			s.stopEngine, s.engineDone = make(chan struct{}), make(chan struct{})
			go s.engine()
		}
		s.serving.Add(2)
		go func() { defer s.serving.Done(); srv.ServeTelemetry(telemLn) }()
		go func() { defer s.serving.Done(); s.hs.Serve(httpLn) }()

		if tr == nil {
			// Readiness needs the engine loop live; wait for that in-process
			// so the HTTP check below is one request, not a poll.
			for deadline := time.Now().Add(10 * time.Second); srv.Ready() != nil && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			if err := s.client.Ready(); err != nil {
				s.close()
				return nil, fmt.Errorf("readyz: %w", err)
			}
		}
		warm := shortSpec(cfg.seedBase()-1, 0)
		ids, err := s.client.Submit([]fleet.JobSpec{warm})
		if err == nil {
			err = s.stream(ids[0], 0)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		s.base = srv.Stats()
		s.journalBase = srv.Journal().Size()
		// The warm-up job is not a traced request.
		s.tr = tr
		s.engineTr.Store(tr)
		return s, nil
	}
}

// engine is the traced stand-in for Server.Run: Advance(250) in a loop,
// sleeping 50 µs when there is no work. A busy Advance is one
// fleet.advance span; each stretch of idle polls is one fleet.engine_idle
// span.
func (s *fleetSession) engine() {
	defer close(s.engineDone)
	var idleSince time.Time
	for {
		tr := s.engineTr.Load()
		select {
		case <-s.stopEngine:
			if !idleSince.IsZero() {
				tr.add("fleet.engine_idle", idleSince, time.Now())
			}
			return
		default:
		}
		t0 := time.Now()
		if s.srv.Advance(250) {
			if !idleSince.IsZero() {
				tr.add("fleet.engine_idle", idleSince, t0)
				idleSince = time.Time{}
			}
			tr.add("fleet.advance", t0, time.Now())
			continue
		}
		if idleSince.IsZero() && tr != nil {
			idleSince = t0
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// haltEngine stops the traced engine loop, closing its last idle span.
func (s *fleetSession) haltEngine() {
	if s.stopEngine != nil {
		close(s.stopEngine)
		<-s.engineDone
		s.stopEngine = nil
	}
}

func (s *fleetSession) close() {
	s.haltEngine()
	s.hs.Close()
	s.srv.Shutdown()
	s.transport.CloseIdleConnections()
	s.serving.Wait()
	os.RemoveAll(s.dir)
}

// stream subscribes to job id's telemetry and reads it to EOF, which the
// server sends only after the job's DONE record is fsynced.
func (s *fleetSession) stream(id uint64, parent int) error {
	sp := s.tr.begin("groundstation.stream", parent)
	defer s.tr.end(sp, id)
	conn, err := fleet.DialStream(s.telemAddr, id)
	if err != nil {
		return err
	}
	defer conn.Close()
	_, err = io.Copy(io.Discard, conn)
	return err
}

// submit POSTs specs as one request and records the jobs it created.
func (s *fleetSession) submit(specs []fleet.JobSpec, parent int) ([]uint64, error) {
	sp := s.tr.begin("fleet.submit", parent)
	ids, err := s.client.Submit(specs)
	var job uint64
	if len(ids) == 1 {
		job = ids[0]
	}
	s.tr.end(sp, job)
	if err != nil {
		return nil, err
	}
	if len(ids) != len(specs) {
		return nil, fmt.Errorf("submitted %d jobs, got %d ids", len(specs), len(ids))
	}
	for k, id := range ids {
		s.jobs = append(s.jobs, jobRef{id: id, spec: specs[k]})
	}
	return ids, nil
}

// op is one fleet_short job or one fleet_long campaign: POST, then wait
// for every job's telemetry EOF in submission order.
func (s *fleetSession) op(i, parent int) (int, error) {
	var specs []fleet.JobSpec
	if s.long {
		n := int(s.cfg.scaled(campaignJobs, 1))
		base := s.cfg.seedBase() + int64(i*n)
		for j := 0; j < n; j++ {
			specs = append(specs, fleet.JobSpec{
				Seed:       base + int64(j),
				MaxSeconds: s.cfg.scaled(campaignSeconds, 1),
				Workload:   &mission.WireSpec{KindName: longKinds[j%len(longKinds)]},
			})
		}
	} else {
		specs = []fleet.JobSpec{shortSpec(s.cfg.seedBase(), i)}
	}
	ids, err := s.submit(specs, parent)
	if err != nil {
		return len(specs), err
	}
	for _, id := range ids {
		if err := s.stream(id, parent); err != nil {
			return len(specs), err
		}
	}
	return len(specs), nil
}

// finish checks every job's outcome, re-flies a seeded sample of them and
// compares digests, computes the golden digest-of-digests, and, when
// traced, re-times the layers that run out of the client's sight.
func (s *fleetSession) finish() (outcome, error) {
	s.haltEngine() // every job has finished; keep checking time out of the engine's spans
	o := outcome{layers: map[string]float64{}, weight: map[string]float64{}, goldens: map[string]string{}}
	goldenN := shortGoldenJobs
	if s.long {
		goldenN = int(s.cfg.scaled(campaignJobs, 1))
	}
	dd := sha256.New()
	var done []int
	var ekf, ctrl float64
	for k, j := range s.jobs {
		st, ok := s.srv.Job(j.id)
		if !ok || st.State != fleet.JobDone.String() || st.Digests == nil {
			fmt.Fprintf(os.Stderr, "benchmark: job %d ended %q: %s\n", j.id, st.State, st.Error)
			o.failed++
			continue
		}
		done = append(done, k)
		o.simS += st.FlightTimeS
		if k < goldenN {
			fmt.Fprintf(dd, "%s %s %s\n", st.Digests.Trajectory, st.Digests.FlightLog, st.Digests.Ledger)
		}
		res, err := s.srv.Result(j.id)
		if err != nil || res == nil {
			return o, fmt.Errorf("job %d result: %v", j.id, err)
		}
		ekf += float64(res.EKFStats.TotalOps())
		ctrl += float64(res.CtrlStats.TotalOps())
	}
	if len(s.jobs) >= goldenN && o.failed == 0 {
		key := fmt.Sprintf("jobs[0:%d]", shortGoldenJobs)
		if s.long {
			key = "campaign[0]"
		}
		o.goldens[key] = hex.EncodeToString(dd.Sum(nil))
	}

	// Re-fly a seeded sample with scenario.Run, the reference path, and
	// compare digests. The server keeps no artifacts, so the traced run
	// times DigestResult here, on the same results the engine digested.
	rng := rand.New(rand.NewPCG(uint64(s.cfg.seed), 0x6a0b))
	sample := rng.Perm(len(done))[:min(refly, len(done))]
	for _, p := range sample {
		j := s.jobs[done[p]]
		st, _ := s.srv.Job(j.id)
		res, err := scenario.Run(j.spec.Scenario())
		if err != nil {
			return o, fmt.Errorf("re-fly job %d: %w", j.id, err)
		}
		sp := s.tr.begin("fleet.digest", 0)
		d := fleet.DigestResult(res)
		s.tr.end(sp, j.id)
		if d != *st.Digests {
			fmt.Fprintf(os.Stderr, "benchmark: job %d: re-flown digests differ from the server's\n", j.id)
			o.failed++
		}
	}
	if len(sample) > 0 {
		o.weight["fleet.digest"] = float64(len(s.jobs)) / float64(len(sample))
	}

	if n := float64(len(s.jobs)); n > 0 {
		st := s.srv.Stats()
		o.layers["fleet.lane_steps_per_job"] = float64(st.LaneSteps-s.base.LaneSteps) / n
		o.layers["fleet.peak_live"] = float64(st.PeakLive)
		o.layers["journal.bytes_per_job"] = float64(s.srv.Journal().Size()-s.journalBase) / n
	}
	if n := float64(len(done)); n > 0 {
		o.layers["estimation.ekf_ops_per_flight"] = ekf / n
		o.layers["control.ctrl_ops_per_flight"] = ctrl / n
	}
	if s.tr != nil {
		if err := s.probe(done, o.weight); err != nil {
			return o, err
		}
	}
	return o, nil
}

// probe times, from outside, per-job calls that happen inside the server
// where the client cannot see them: JobSpec.Validate, scenario.Build on the
// job's Scenario(), and one journal append of its spec JSON to a separate
// log. Each is a root span; weight scales the sample up to every job in
// the window.
func (s *fleetSession) probe(done []int, weight map[string]float64) error {
	jl, _, _, err := journal.Open(filepath.Join(s.dir, "probe.wal"))
	if err != nil {
		return err
	}
	defer jl.Close()
	n := min(probeJobs, len(done))
	for _, k := range done[:n] {
		j := s.jobs[k]
		sp := s.tr.begin("fleet.validate", 0)
		err := j.spec.Validate()
		s.tr.end(sp, j.id)
		if err != nil {
			return fmt.Errorf("job %d validate: %w", j.id, err)
		}

		sp = s.tr.begin("scenario.build", 0)
		_, err = scenario.Build(j.spec.Scenario())
		s.tr.end(sp, j.id)
		if err != nil {
			return fmt.Errorf("job %d build: %w", j.id, err)
		}

		payload, err := json.Marshal(j.spec)
		if err != nil {
			return err
		}
		sp = s.tr.begin("journal.append", 0)
		err = jl.Append(1, payload)
		s.tr.end(sp, j.id)
		if err != nil {
			return err
		}
	}
	if n > 0 {
		w := float64(len(s.jobs)) / float64(n)
		for _, name := range []string{"fleet.validate", "scenario.build", "journal.append"} {
			weight[name] = w
		}
	}
	return nil
}
