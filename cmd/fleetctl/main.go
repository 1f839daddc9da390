// Command fleetctl is the fleetd client: submit jobs, wait for completion
// with digest verification, stream live telemetry, and shut the server
// down, all against the JSON job API and the framed TCP telemetry feed.
//
// Usage:
//
//	fleetctl [-addr URL] [-telem HOST:PORT] [-retries N] [-wait-ready D] <command> [flags]
//
//	submit    -n 64 -seconds 2 -workload hover -seed 1 -vary 8   # generate and submit jobs
//	submit    -f jobs.json                                       # or submit a JSON job list
//	wait      -verify -min-peak 1000 -timeout 5m                 # wait, assert digests agree
//	run       -seconds 20 -workload hover -check                 # submit one job, stream it
//	                                                             # live, cross-check digests
//	                                                             # against a local replay
//	stream    -id 3                                              # stream a job's telemetry
//	stream    -id 3 -stall                                       # subscribe and never read
//	digests                                                      # "id spec-digests" per line,
//	                                                             # diffable across restarts
//	stats | jobs | shutdown
//
// -workload takes the same kind names as flysim and faultcamp (box, hover,
// coverage, delivery, follow), each in its default configuration; submit a
// JSON job list with -f for a parameterized workload. The list is decoded
// strictly: an unknown field is an error, not silently ignored.
//
// -retries spends a jittered-exponential-backoff budget on transient
// failures (connection refused, 429 queue-full, 503 draining); -wait-ready
// polls /readyz before running the command — together they let scripts
// race fleetctl against a fleetd that is still starting or recovering.
//
// `wait -verify` fails if any job failed or if two jobs sharing a JobSpec
// report different digests — the multi-tenancy determinism contract,
// checked from the outside. `run -check` replays the same JobSpec through
// scenario.Run in-process and fails unless all three digests match the
// server's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"dronedse/fleet"
	"dronedse/groundstation"
	"dronedse/mavlink"
	"dronedse/mission"
	"dronedse/scenario"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8480", "fleetd job API root")
	telem := flag.String("telem", "127.0.0.1:8481", "fleetd telemetry address")
	retries := flag.Int("retries", 0, "retry budget for transient failures (jittered exponential backoff)")
	waitReady := flag.Duration("wait-ready", 0, "poll /readyz this long before the command (0 = don't)")
	flag.Parse()
	if flag.NArg() < 1 {
		fatal("usage: fleetctl [-addr URL] [-telem HOST:PORT] submit|wait|run|stream|digests|stats|jobs|shutdown [flags]")
	}
	c := fleet.NewClient(*addr)
	c.Retry = fleet.RetryPolicy{Max: *retries}
	if *waitReady > 0 {
		check(c.WaitReady(*waitReady))
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]

	switch cmd {
	case "submit":
		cmdSubmit(c, args)
	case "wait":
		cmdWait(c, args)
	case "run":
		cmdRun(c, *telem, args)
	case "stream":
		cmdStream(*telem, args)
	case "digests":
		cmdDigests(c)
	case "stats":
		st, err := c.Stats()
		check(err)
		printJSON(st)
	case "jobs":
		jobs, err := c.Jobs()
		check(err)
		printJSON(jobs)
	case "shutdown":
		check(c.Shutdown())
	default:
		fatal("unknown command %q", cmd)
	}
}

// jobFlags declares the JobSpec-shaping flags shared by submit and run.
func jobFlags(fs *flag.FlagSet) *fleet.JobSpec {
	spec := &fleet.JobSpec{}
	fs.Int64Var(&spec.Seed, "seed", 1, "base sensor/environment seed")
	fs.Func("workload", "workload kind: box, hover, coverage, delivery, follow (default box)", func(kind string) error {
		if _, err := mission.Named(kind); err != nil {
			return err
		}
		spec.Workload = &mission.WireSpec{KindName: kind}
		return nil
	})
	fs.Float64Var(&spec.MaxSeconds, "seconds", 0, "maximum simulated seconds (0 = default)")
	fs.Float64Var(&spec.TakeoffAltM, "alt", 0, "takeoff altitude (0 = default)")
	fs.Float64Var(&spec.WindMeanMS, "wind", 0, "steady wind (m/s)")
	fs.Float64Var(&spec.WindGustMS, "gust", 0, "wind gust amplitude (m/s)")
	fs.BoolVar(&spec.SLAM, "slam", false, "SLAM-class companion compute load")
	fs.IntVar(&spec.TelemetryEverySteps, "every", 0, "physics steps between telemetry units (0 = default)")
	return spec
}

func cmdSubmit(c *fleet.Client, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	spec := jobFlags(fs)
	n := fs.Int("n", 1, "number of jobs to generate")
	vary := fs.Int("vary", 0, "cycle seeds over this many values (0 = all same seed)")
	file := fs.String("f", "", "submit a JSON job list from this file instead ('-' = stdin)")
	fs.Parse(args)

	var specs []fleet.JobSpec
	if *file != "" {
		var rd io.Reader = os.Stdin
		if *file != "-" {
			f, err := os.Open(*file)
			check(err)
			defer f.Close()
			rd = f
		}
		dec := json.NewDecoder(rd)
		dec.DisallowUnknownFields()
		check(dec.Decode(&specs))
	} else {
		base := spec.Seed
		for i := 0; i < *n; i++ {
			s := *spec
			if *vary > 0 {
				s.Seed = base + int64(i%*vary)
			}
			specs = append(specs, s)
		}
	}
	ids, err := c.Submit(specs)
	check(err)
	for _, id := range ids {
		fmt.Println(id)
	}
}

func cmdWait(c *fleet.Client, args []string) {
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	timeout := fs.Duration("timeout", 5*time.Minute, "overall deadline")
	poll := fs.Duration("poll", 100*time.Millisecond, "poll interval")
	verify := fs.Bool("verify", false, "fail on any failed job or same-spec digest divergence")
	minPeak := fs.Int("min-peak", 0, "fail unless peak concurrent lanes reached this")
	fs.Parse(args)

	jobs, err := c.WaitAll(*timeout, *poll)
	check(err)
	st, err := c.Stats()
	check(err)
	fmt.Printf("fleetctl: %d jobs done, %d failed, peak %d concurrent, %d lane-steps, %d frames (%d shed)\n",
		st.Completed, st.Failed, st.PeakLive, st.LaneSteps, st.FramesPublished, st.FramesDropped)

	if *verify {
		if st.Failed > 0 {
			for _, j := range jobs {
				if j.State == "failed" {
					fmt.Fprintf(os.Stderr, "fleetctl: job %d failed: %s\n", j.ID, j.Error)
				}
			}
			fatal("%d jobs failed", st.Failed)
		}
		// Key by the spec's JSON: decoded workloads are distinct pointers
		// even when their contents match.
		table := map[string]fleet.Digests{}
		for _, j := range jobs {
			if j.Digests == nil {
				fatal("job %d finished without digests", j.ID)
			}
			key, err := json.Marshal(j.Spec)
			check(err)
			if prev, seen := table[string(key)]; seen && prev != *j.Digests {
				fatal("determinism violation: jobs sharing a spec (seed %d) diverged", j.Spec.Seed)
			}
			table[string(key)] = *j.Digests
		}
		fmt.Printf("fleetctl: digests verified across %d jobs (%d distinct specs)\n",
			len(jobs), len(table))
	}
	if *minPeak > 0 && st.PeakLive < *minPeak {
		fatal("peak concurrency %d below required %d", st.PeakLive, *minPeak)
	}
}

// cmdRun submits one job, streams its telemetry to completion, and
// optionally cross-checks the server's digests against a local replay.
func cmdRun(c *fleet.Client, telem string, args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	spec := jobFlags(fs)
	checkDigests := fs.Bool("check", false, "replay the spec locally and compare digests")
	fs.Parse(args)

	ids, err := c.Submit([]fleet.JobSpec{*spec})
	check(err)
	id := ids[0]
	conn, err := fleet.DialStream(telem, id)
	check(err)
	data, err := io.ReadAll(conn)
	conn.Close()
	check(err)

	gs := groundstation.New()
	gs.Consume(data)
	vs := gs.State()
	if vs.ParseErrors > 0 {
		fatal("job %d: %d telemetry parse errors", id, vs.ParseErrors)
	}
	fmt.Printf("fleetctl: job %d streamed %d bytes, %d heartbeats, final mode %d\n",
		id, len(data), vs.Heartbeats, vs.Mode)
	if vs.Heartbeats == 0 {
		fatal("job %d: no heartbeats on the live stream", id)
	}

	st, err := c.Job(id)
	check(err)
	if st.State != "done" || st.Digests == nil {
		fatal("job %d: state %s, error %q", id, st.State, st.Error)
	}
	printJSON(st)

	if *checkDigests {
		res, err := scenario.Run(spec.Scenario())
		check(err)
		if local := fleet.DigestResult(res); local != *st.Digests {
			fatal("job %d: server digests diverge from local scenario.Run replay", id)
		}
		fmt.Println("fleetctl: server digests match local replay")
	}
}

func cmdStream(telem string, args []string) {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	id := fs.Uint64("id", 0, "job to subscribe to")
	stall := fs.Bool("stall", false, "subscribe but never read, until killed")
	minHB := fs.Int("min-heartbeats", 1, "fail below this many heartbeats (non-stall)")
	fs.Parse(args)

	conn, err := fleet.DialStream(telem, *id)
	check(err)
	defer conn.Close()

	if *stall {
		// Hold the subscription without draining it: the laggard client the
		// server must shed around. Exits on SIGINT/SIGTERM.
		fmt.Printf("fleetctl: stalled on job %d\n", *id)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		return
	}

	var p mavlink.Parser
	frames, heartbeats := 0, 0
	buf := make([]byte, 32<<10)
	for {
		n, err := conn.Read(buf)
		for _, f := range p.Push(buf[:n]) {
			frames++
			if f.MsgID == mavlink.MsgHeartbeat {
				heartbeats++
			}
		}
		if err == io.EOF {
			break
		}
		check(err)
	}
	if p.Resyncs > 0 || p.BadCRC > 0 {
		fatal("job %d: damaged stream (%d resyncs, %d bad CRCs)", *id, p.Resyncs, p.BadCRC)
	}
	fmt.Printf("fleetctl: job %d: %d frames, %d heartbeats\n", *id, frames, heartbeats)
	if heartbeats < *minHB {
		fatal("job %d: %d heartbeats, need %d", *id, heartbeats, *minHB)
	}
}

// cmdDigests prints one "id trajectory flight-log ledger" line per job in
// ID order — a format made for diffing a post-crash recovery against an
// uninterrupted baseline run of the same job sequence.
func cmdDigests(c *fleet.Client) {
	jobs, err := c.Jobs()
	check(err)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	for _, j := range jobs {
		switch {
		case j.Digests != nil:
			fmt.Printf("%d %s %s %s\n", j.ID, j.Digests.Trajectory, j.Digests.FlightLog, j.Digests.Ledger)
		case j.State == "failed":
			fmt.Printf("%d failed %s\n", j.ID, strings.ReplaceAll(j.Error, " ", "_"))
		default:
			fmt.Printf("%d %s\n", j.ID, j.State)
		}
	}
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func check(err error) {
	if err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fleetctl: "+format+"\n", args...)
	os.Exit(1)
}
