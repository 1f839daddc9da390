package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5.5, 1.25, 9, 2, 7.75, 3, 3}, 2, 3, 7.75},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(median(nil)) {
		t.Error("empty input should give NaN")
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{9, 0, false},
		{99, 0, false},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if q != c.q || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v %v, want %v %v", c.n, q, ok, c.q, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(q=%v) = %v, want %v", q, got, want)
		}
	}
}

func TestRegressionBound(t *testing.T) {
	if got := regressionBound(0.1, 0.05, 2); got != 0.2 {
		t.Errorf("relative part: got %v, want 0.2", got)
	}
	if got := regressionBound(0.1, 0.05, 0.1); got != 0.05 {
		t.Errorf("floor: got %v, want 0.05", got)
	}
	if got := regressionBound(0.1, 0, -3); math.Abs(got-0.3) > 1e-15 {
		t.Errorf("negative parent: got %v, want 0.3", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "latency_p50_ms", bound: 0.1}
	higher := metricDef{name: "items_per_s", higher: true, bound: 0.1}
	tight := []float64{100, 100.5, 101, 99.5, 100}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight, tight, verdictWithin},
		{"slower beyond bound", lower, tight, []float64{120, 121, 119, 120, 122}, verdictWorse},
		{"slower within bound", lower, tight, []float64{105, 105.5, 104.5, 105, 106}, verdictWithin},
		{"faster", lower, tight, []float64{80, 81, 79, 80, 80.5}, verdictBetter},
		{"more throughput", higher, tight, []float64{120, 121, 119, 120, 122}, verdictBetter},
		{"less throughput", higher, tight, []float64{80, 81, 79, 80, 80.5}, verdictWorse},
		{"noisy", lower, []float64{60, 140, 100, 80, 120}, []float64{70, 150, 110, 90, 130}, verdictUnresolved},
		{"noisy but all better", lower, []float64{60, 140, 100, 80, 120}, []float64{10, 20, 15, 12, 18}, verdictBetter},
		{"no bound", metricDef{name: "x"}, tight, tight, verdictInfo},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 35, End: 45},
		{ID: 5, Name: "engine", Start: 0, End: 50},
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	want := []int64{50, 30, 20, 10, 50}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	sh := shares(spans, "root", map[string]float64{"engine": 2})
	if sh["a.share"] != 0.3 || sh["root.share"] != 0.5 || sh["engine.share"] != 1 {
		t.Errorf("shares = %v", sh)
	}
	bad := append([]span(nil), spans...)
	bad[3].End = 70 // c now ends after its parent b
	if checkSpans(bad) == nil {
		t.Error("child outside its parent was not reported")
	}
}
