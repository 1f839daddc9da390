package main

import (
	"math"
	"sort"
)

// metricDef describes one reported metric. The end-to-end table is what
// BENCHMARK.json lists with bounds; TestRegistryMatchesBenchmarkJSON keeps
// the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool // true when a larger value is better
	// bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression (0 for per-layer
	// metrics, which carry no bound).
	bound float64
	// floor is the absolute slack below which a change is never called a
	// regression, for metrics whose median is small enough that timer and
	// scheduler jitter dominate the relative bound.
	floor float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; README.md defines "item" and "request" per workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, floor: 0.05},
	{name: "items_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "sim_speedup", unit: "s/s", higher: true, bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", bound: 0.25, floor: 0.1},
	{name: "alloc_kb_per_item", unit: "KiB", bound: 0.10},
}

// perLayer are the traced run's metrics. Times are reported as shares of
// the traced requests' wall time (self time of the named span divided by
// the summed request time), so a layer a workload never enters reads 0
// without being a time; counts are normalised per item so they do not move
// with throughput.
var perLayer = []metricDef{
	{name: "fleet.submit.share", unit: "ratio"},
	{name: "groundstation.stream.share", unit: "ratio"},
	{name: "fleet.advance.share", unit: "ratio"},
	{name: "fleet.engine_idle.share", unit: "ratio"},
	{name: "fleet.validate.share", unit: "ratio"},
	{name: "scenario.build.share", unit: "ratio"},
	{name: "fleet.digest.share", unit: "ratio"},
	{name: "journal.append.share", unit: "ratio"},
	{name: "faultx.run.share", unit: "ratio"},
	{name: "slam.detect.share", unit: "ratio"},
	{name: "slam.track.share", unit: "ratio"},
	{name: "slam.finish.share", unit: "ratio"},
	{name: "fleet.lane_steps_per_job", unit: "count"},
	{name: "fleet.peak_live", unit: "count", higher: true},
	{name: "journal.bytes_per_job", unit: "bytes"},
	{name: "estimation.ekf_ops_per_flight", unit: "count"},
	{name: "control.ctrl_ops_per_flight", unit: "count"},
	{name: "faultx.completed_frac", unit: "ratio", higher: true},
	{name: "faultx.rtl_frac", unit: "ratio"},
	{name: "faultx.telemetry_frames_per_flight", unit: "count", higher: true},
	{name: "faultx.chunks_dropped_per_flight", unit: "count"},
	{name: "faultx.fallbacks_per_flight", unit: "count"},
	{name: "slam.ops.feature_extraction_per_frame", unit: "count"},
	{name: "slam.ops.matching_per_frame", unit: "count"},
	{name: "slam.ops.local_ba_per_frame", unit: "count"},
	{name: "slam.ops.global_ba_per_frame", unit: "count"},
	{name: "slam.ops.pose_graph_per_frame", unit: "count"},
	{name: "slam.keyframes_per_pass", unit: "count"},
	{name: "slam.loop_closures_per_pass", unit: "count"},
	{name: "runtime.gc_cycles_per_s", unit: "1/s"},
	{name: "runtime.rss_peak_mb", unit: "MB"},
	{name: "trace.overhead_frac", unit: "ratio"},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values for an
// even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones a Python reader takes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// tailQuantile returns the highest of p99.9, p99 and p90 that has at least
// ten of n samples beyond it; ok is false when even p90 has fewer.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// regressionBound is how far a metric may worsen from the parent's median
// before a change counts as a regression: max(rel·|parent|, floor).
func regressionBound(rel, floor, parent float64) float64 {
	return math.Max(rel*math.Abs(parent), floor)
}

// Verdicts compare reports.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictInfo       = "no bound"
)

// verdict compares a change's runs b against the parent's runs a for one
// metric. The spread of a side is the distance between its quartiles.
// When either spread exceeds the bound the comparison is unresolved, unless
// every run of the change beats every run of the parent. Otherwise the
// change is worse when its median loses more than the bound, better when it
// gains more than the parent's own spread, and within bound between the
// two.
func verdict(d metricDef, a, b []float64) string {
	if d.bound == 0 {
		return verdictInfo
	}
	ma, mb := median(a), median(b)
	bound := regressionBound(d.bound, d.floor, ma)
	loss := mb - ma // how much worse the change reads
	if d.higher {
		loss = ma - mb
	}
	a1, _, a3 := quartiles(a)
	b1, _, b3 := quartiles(b)
	spreadA := a3 - a1
	if spreadA > bound || b3-b1 > bound {
		if allBetter(d, a, b) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case loss > bound:
		return verdictWorse
	case -loss > spreadA:
		return verdictBetter
	default:
		return verdictWithin
	}
}

// allBetter reports whether every value in b beats every value in a.
func allBetter(d metricDef, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if d.higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
