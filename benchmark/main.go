// Command benchmark is the repository's end-to-end benchmark. It drives the
// system through its public APIs — fleetd's HTTP job API and telemetry
// feed, faultx.Run and slam.RunSequence — prints every end-to-end metric
// with its unit, and checks that the outputs are correct. A traced run
// (-trace 1) times the calls into each layer from this package's own code
// and prints the per-layer metrics instead.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh                                   # all workloads
//	bash benchmark/run.sh -workload slam_euroc -seed 3 -seconds 10
//	bash benchmark/run.sh -workload fleet_long -trace 1 -spans spans.jsonl
//	bash benchmark/run.sh compare A.txt... -- B.txt...
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads, the metrics and the load model.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed   int64
	window time.Duration
	// scale shrinks each request (campaign size, simulated seconds, SLAM
	// frames) for smoke tests; goldens apply only at scale 1.
	scale float64
	// spans, when set, receives the traced run's spans as JSON lines.
	spans string
	// writeGoldens, when set, receives the golden values this run computed
	// instead of checking them.
	writeGoldens string
}

// seedBase spreads each seed's job, scenario and campaign seeds far apart,
// so two seeds never fly the same flight.
func (c config) seedBase() int64 { return c.seed * 1_000_000 }

// checkGoldens reports whether this run pins its outputs to testdata.
func (c config) checkGoldens() bool { return c.seed == 1 && c.scale == 1 }

// scaled returns max(lo, round(n·scale)).
func (c config) scaled(n float64, lo float64) float64 {
	return math.Max(lo, math.Round(n*c.scale))
}

// A workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// root names the span around one request; the traced run's shares are
	// fractions of the summed request time.
	root string
	// minOps is how many requests a run makes even when the window has
	// already passed, so every run covers the golden-pinned requests.
	minOps int
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median.
	setupReps int
	setup     func(cfg config, tr *tracer) (session, error)
}

// session is one set-up instance of a workload.
type session interface {
	// op makes request i. It returns how many items the request covered
	// (jobs, flights or frames), also when it fails.
	op(i, parent int) (items int, err error)
	// finish checks the outputs of every request made and returns the
	// simulated time they covered, the items that failed, and the
	// per-layer counters.
	finish() (outcome, error)
	close()
}

// outcome is what a session reports after its window.
type outcome struct {
	simS   float64
	failed int
	// layers holds per-layer counters keyed by metric name.
	layers map[string]float64
	// weight scales span shares for names that timed only a sample of the
	// items (see shares).
	weight map[string]float64
	// goldens maps golden keys to the values this session computed.
	goldens map[string]string
}

var workloads = []workload{
	{name: "fleet_short", root: "fleet.job", minOps: shortGoldenJobs, setupReps: 5, setup: setupFleet(false)},
	{name: "fleet_long", root: "fleet.campaign", minOps: 1, setupReps: 5, setup: setupFleet(true)},
	{name: "fault_campaign", root: "faultx.round", minOps: 1, setupReps: 3, setup: setupFault},
	{name: "slam_euroc", root: "slam.pass", minOps: 1, setupReps: 3, setup: setupSLAM},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (empty = every workload, each in its own child process)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the traced spans to this file as JSON lines")
	scale := fs.Float64("scale", 1, "shrink each request by this factor (smoke tests; goldens need 1)")
	goldens := fs.String("write-goldens", "", "write this run's golden values to the given file instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 || *scale <= 0 || *scale > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be > 0 and -scale in (0, 1]")
		return 2
	}
	cfg := config{
		seed:         *seed,
		window:       time.Duration(*seconds * float64(time.Second)),
		scale:        *scale,
		spans:        *spans,
		writeGoldens: *goldens,
	}
	if *name == "" {
		return runChildren(args, cfg, out)
	}
	for _, w := range workloads {
		if w.name == *name {
			if !runWorkload(w, cfg, *trace == 1, out) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
	return 2
}

// runChildren runs every workload in its own child process, so each one's
// memory is measured alone, and passes their output through.
func runChildren(args []string, cfg config, out io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cargs := append([]string{"-workload", w.name}, args...)
		if cfg.spans != "" {
			cargs = append(cargs, "-spans", strings.TrimSuffix(cfg.spans, ".jsonl")+"."+w.name+".jsonl")
		}
		cmd := exec.Command(self, cargs...)
		cmd.Stdout, cmd.Stderr = out, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// window is one measured stretch of requests.
type window struct {
	latMS   []float64
	items   int
	failed  int
	elapsed float64 // seconds
	allocB  uint64
	gcs     uint32
	cpuS    float64 // process user+system CPU time
	out     outcome
}

// measure makes requests until the window has passed and at least
// w.minOps were made, then lets the session check its outputs.
func measure(w workload, s session, d time.Duration, tr *tracer) window {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	var r window
	reported := 0
	start := time.Now()
	for i := 0; i < w.minOps || time.Since(start) < d; i++ {
		t0 := time.Now()
		root := tr.begin(w.root, 0)
		n, err := s.op(i, root)
		tr.end(root, 0)
		r.latMS = append(r.latMS, float64(time.Since(t0))/float64(time.Millisecond))
		r.items += n
		if err != nil {
			r.failed += n
			if reported++; reported <= 5 {
				fmt.Fprintf(os.Stderr, "benchmark: %s request %d: %v\n", w.name, i, err)
			}
		}
	}
	r.elapsed = time.Since(start).Seconds()
	r.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	r.allocB = m1.TotalAlloc - m0.TotalAlloc
	r.gcs = m1.NumGC - m0.NumGC
	out, err := s.finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		if out.failed == 0 {
			out.failed = 1
		}
	}
	r.out = out
	r.failed += out.failed
	return r
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets the workload up, measures it, checks its outputs and
// prints its report. It reports whether every output was correct.
func runWorkload(w workload, cfg config, traced bool, out io.Writer) bool {
	fmt.Fprintf(out, "# workload %s seed %d seconds %g scale %g trace %d nproc %d gomaxprocs %d go %s\n",
		w.name, cfg.seed, cfg.window.Seconds(), cfg.scale, b2i(traced),
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var setups []float64
	var s session
	for rep := 0; rep < w.setupReps; rep++ {
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = w.setup(cfg, nil); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s setup: %v\n", w.name, err)
			return false
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	d := cfg.window
	if traced {
		d /= 2 // the untraced half measures the tracing overhead
	}
	plain := measure(w, s, d, nil)
	s.close()
	res := result{Attempted: plain.items, Failed: plain.failed, Metrics: map[string]metricValue{}}
	goldens := []map[string]string{plain.out.goldens}
	put := func(name string, v float64) {
		def, _ := lookupMetric(name)
		res.Metrics[name] = metricValue{Value: v, Unit: def.unit}
	}

	if !traced {
		put("setup_s", median(setups))
		put("items_per_s", float64(plain.items)/plain.elapsed)
		put("sim_speedup", plain.out.simS/plain.elapsed)
		put("latency_p50_ms", median(plain.latMS))
		put("alloc_kb_per_item", float64(plain.allocB)/1024/float64(max(plain.items, 1)))
	} else {
		runtime.GC()
		tr := newTracer()
		ts, err := w.setup(cfg, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s traced setup: %v\n", w.name, err)
			return false
		}
		tw := measure(w, ts, d, tr)
		ts.close()
		res.Attempted += tw.items
		res.Failed += tw.failed
		goldens = append(goldens, tw.out.goldens)

		spans := tr.snapshot()
		if err := checkSpans(spans); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: malformed trace: %v\n", w.name, err)
			res.Failed++
		}
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, spans); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return false
			}
		}
		layers := shares(spans, w.root, tw.out.weight)
		for k, v := range tw.out.layers {
			layers[k] = v
		}
		layers["runtime.gc_cycles_per_s"] = float64(tw.gcs) / tw.elapsed
		layers["runtime.rss_peak_mb"] = rssPeakMB()
		layers["trace.overhead_frac"] = 1 - (float64(tw.items)/tw.elapsed)/(float64(plain.items)/plain.elapsed)
		for _, def := range perLayer {
			put(def.name, layers[def.name])
		}
	}

	res.Failed += checkGoldenValues(w.name, cfg, goldens)
	res.Correct = res.Failed == 0
	printReport(out, w, res, plain, setups, traced)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return false
	}
	fmt.Fprintln(out, string(line))
	return res.Correct
}

// printReport writes the human-readable lines that precede the JSON
// result: each metric with its unit, plus the sample counts and the tail
// latency where enough samples lie beyond it.
func printReport(out io.Writer, w workload, res result, plain window, setups []float64, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, def := range defs {
		m := res.Metrics[def.name]
		fmt.Fprintf(out, "%-40s %14.6g %s\n", def.name, m.Value, m.Unit)
	}
	n := len(plain.latMS)
	fmt.Fprintf(out, "# %d requests, %d items in %.3f s; setup median of %d", n, plain.items, plain.elapsed, len(setups))
	if q, ok := tailQuantile(n); ok {
		fmt.Fprintf(out, "; latency p%g %.4g ms", q*100, percentile(plain.latMS, q))
	}
	fmt.Fprintf(out, "; cpu %.6g ms/item; %d failed\n", plain.cpuS*1000/float64(max(plain.items, 1)), res.Failed)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// rssPeakMB is the process's peak resident set (ru_maxrss, which Linux
// reports in KiB).
func rssPeakMB() float64 { return float64(rusage().Maxrss) / 1024 }

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
