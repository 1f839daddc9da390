package main

import (
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// testdata/pass.txt is real output of
//
//	go test -run '^$' -bench '^Benchmark(Fig10|Resolve|SweepCapacity|Batch)$' \
//	    -benchmem -count 5 -benchtime 3x . ./core ./scenario
//
// on a 2-vCPU host, and testdata/fail.txt the output of a core benchmark
// made to fail at pool 2.

func parseFile(t *testing.T, path string) ([]Row, int, error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return parse(f)
}

func TestParseFixture(t *testing.T) {
	rows, procs, err := parseFile(t, "testdata/pass.txt")
	if err != nil {
		t.Fatal(err)
	}
	if procs != 2 {
		t.Errorf("GOMAXPROCS = %d, want 2 from the -2 suffix", procs)
	}
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.key()] = r
		if r.Samples != 5 {
			t.Errorf("%s: %d samples, want 5", r.key(), r.Samples)
		}
		if !(r.MinNsPerOp <= r.NsPerOp && r.NsPerOp <= r.MaxNsPerOp) {
			t.Errorf("%s: median %v outside [%v, %v]", r.key(), r.NsPerOp, r.MinNsPerOp, r.MaxNsPerOp)
		}
	}
	want := []string{
		"dronedse.BenchmarkFig10@pool1", "dronedse.BenchmarkFig10@pool2",
		"dronedse/core.BenchmarkResolve",
		"dronedse/core.BenchmarkSweepCapacity@pool1", "dronedse/core.BenchmarkSweepCapacity@pool2",
		"dronedse/scenario.BenchmarkBatch/n=1@pool1", "dronedse/scenario.BenchmarkBatch/n=64@pool2",
	}
	for _, k := range want {
		if _, ok := byKey[k]; !ok {
			t.Errorf("no row %s", k)
		}
	}
	if len(rows) != 11 {
		t.Errorf("%d rows, want 11", len(rows))
	}
	// BenchmarkBatch reports ns/op per flight through ReportMetric, so a
	// batch of 64 costs about what a batch of one does, not 64 times more.
	one, many := byKey["dronedse/scenario.BenchmarkBatch/n=1@pool1"], byKey["dronedse/scenario.BenchmarkBatch/n=64@pool1"]
	if r := many.NsPerOp / one.NsPerOp; r > 4 || r < 0.25 {
		t.Errorf("per-flight ns/op of n=64 is %.1fx n=1's; the ReportMetric override was lost", r)
	}
	// The best-450mm-min metric between ns/op and B/op is skipped.
	if fig := byKey["dronedse.BenchmarkFig10@pool1"]; fig.BytesPerOp != 662384 || fig.AllocsPerOp != 811 {
		t.Errorf("Fig10 pool 1: %d B/op, %d allocs/op; want 662384, 811", fig.BytesPerOp, fig.AllocsPerOp)
	}
}

func TestParseStatistics(t *testing.T) {
	for _, c := range []struct {
		name                string
		ns                  []string
		allocs              []string
		procs               int
		median, lo, hi, mal float64
	}{
		{"odd count", []string{"300", "100", "500", "200", "400"}, []string{"3", "1", "9", "2", "2"}, 4, 300, 100, 500, 2},
		{"even count", []string{"400", "100", "300", "200"}, []string{"4", "4", "6", "6"}, 4, 250, 100, 400, 5},
		{"one sample, no suffix", []string{"7.5"}, []string{"0"}, 1, 7.5, 7.5, 7.5, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			var in strings.Builder
			in.WriteString("pkg: example/p\n")
			name := "BenchmarkK/pool=2"
			if c.procs > 1 {
				name += "-4"
			}
			for i := range c.ns {
				in.WriteString(name + " \t 10\t " + c.ns[i] + " ns/op\t 64 B/op\t " + c.allocs[i] + " allocs/op\n")
			}
			in.WriteString("PASS\nok  \texample/p\t1.0s\n")
			rows, procs, err := parse(strings.NewReader(in.String()))
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 1 || procs != c.procs {
				t.Fatalf("%d rows at GOMAXPROCS %d, want 1 at %d", len(rows), procs, c.procs)
			}
			r := rows[0]
			if r.Name != "example/p.BenchmarkK" || r.Pool != 2 || r.Samples != len(c.ns) {
				t.Errorf("row %s pool %d with %d samples", r.Name, r.Pool, r.Samples)
			}
			if r.NsPerOp != c.median || r.MinNsPerOp != c.lo || r.MaxNsPerOp != c.hi {
				t.Errorf("ns/op median/min/max = %v/%v/%v, want %v/%v/%v",
					r.NsPerOp, r.MinNsPerOp, r.MaxNsPerOp, c.median, c.lo, c.hi)
			}
			if r.AllocsPerOp != int64(c.mal) || r.BytesPerOp != 64 {
				t.Errorf("allocs/op %d, B/op %d; want %v, 64", r.AllocsPerOp, r.BytesPerOp, c.mal)
			}
		})
	}
}

// TestParseRejects: a failed or truncated go test run is an error, so the
// pipeline fails without pipefail.
func TestParseRejects(t *testing.T) {
	pass, err := os.ReadFile("testdata/pass.txt")
	if err != nil {
		t.Fatal(err)
	}
	fail, err := os.ReadFile("testdata/fail.txt")
	if err != nil {
		t.Fatal(err)
	}
	lastOK := strings.LastIndex(string(pass), "ok  \t")
	for _, c := range []struct{ name, in, want string }{
		{"FAIL line", string(fail), "go test failed"},
		{"package without ok", string(pass[:lastOK]), "no ok line for dronedse/scenario"},
		{"empty input", "", "no benchmark results"},
		{"no benchmarks", "PASS\nok  \tdronedse/core\t0.01s\n", "no benchmark results"},
	} {
		if _, _, err := parse(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// TestGateAllocsAndOrder pins the two gates and the row order: a kernel
// with a zero-alloc baseline fails on any allocation even when it got
// faster, an allocating kernel may allocate more, ns/op fails beyond the
// tolerance, and rows print in sorted key order whatever the input order.
func TestGateAllocsAndOrder(t *testing.T) {
	row := func(name string, ns float64, allocs int64) Row {
		return Row{Name: name, Pool: 1, NsPerOp: ns, MinNsPerOp: ns, MaxNsPerOp: ns, AllocsPerOp: allocs}
	}
	base := []Row{row("a", 100, 0), row("b", 100, 3), row("c", 100, 0), row("d", 100, 0)}
	fresh := []Row{
		row("d", 130, 0), // too slow
		row("c", 90, 0),  // ok
		row("b", 90, 9),  // ok: baseline allocates
		row("a", 50, 1),  // faster, but lost zero allocs
		row("e", 10, 0),  // no baseline
	}
	var out strings.Builder
	failed, unresolved, compared, skipped := gate(&out, base, fresh)
	if failed != 2 || unresolved != 0 || compared != 4 || skipped != 1 {
		t.Fatalf("failed/unresolved/compared/skipped = %d/%d/%d/%d, want 2/0/4/1\n%s",
			failed, unresolved, compared, skipped, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []struct{ key, status string }{
		{"a@pool1", "FAIL (1 allocs/op, baseline 0)"},
		{"b@pool1", "ok"},
		{"c@pool1", "ok"},
		{"d@pool1", "FAIL"},
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w.key) || !strings.HasSuffix(lines[i], w.status) {
			t.Errorf("line %d = %q, want key %s and status %q", i, lines[i], w.key, w.status)
		}
	}
}

// TestGateSpread: a pair whose spread exceeds the bound is unresolved, not
// passed or failed, unless every fresh sample beats every baseline sample or
// every fresh sample is worse than every baseline sample by more than the
// bound.
func TestGateSpread(t *testing.T) {
	for _, c := range []struct {
		name        string
		base, fresh [3]float64 // median, min, max
		allocs      int64      // fresh allocs/op over a zero-alloc baseline
		status      string
	}{
		{"quiet pair within bound", [3]float64{100, 95, 105}, [3]float64{120, 118, 122}, 0, "ok"},
		{"quiet pair beyond bound", [3]float64{100, 95, 105}, [3]float64{130, 128, 132}, 0, "FAIL"},
		{"noisy baseline", [3]float64{100, 60, 140}, [3]float64{150, 149, 151}, 0, "unresolved"},
		{"noisy fresh run", [3]float64{100, 98, 102}, [3]float64{110, 70, 160}, 0, "unresolved"},
		{"noisy baseline, every sample better", [3]float64{100, 60, 140}, [3]float64{50, 45, 55}, 0, "ok"},
		{"quiet baseline, noisy fresh run far beyond bound", [3]float64{100, 98, 102}, [3]float64{300, 285, 315}, 0, "FAIL"},
		{"noisy baseline, fresh run far above its max", [3]float64{100, 60, 140}, [3]float64{300, 290, 310}, 0, "FAIL"},
		{"noisy pair, slowdown within the spreads", [3]float64{100, 60, 140}, [3]float64{160, 120, 200}, 0, "unresolved"},
		{"fresh spread within its own median's bound", [3]float64{100, 88, 112}, [3]float64{150, 130, 160}, 0, "FAIL"},
		{"noisy baseline, lost zero allocs", [3]float64{100, 60, 140}, [3]float64{100, 99, 101}, 2, "FAIL (2 allocs/op, baseline 0)"},
	} {
		base := Row{Name: "k", NsPerOp: c.base[0], MinNsPerOp: c.base[1], MaxNsPerOp: c.base[2]}
		fresh := Row{Name: "k", NsPerOp: c.fresh[0], MinNsPerOp: c.fresh[1], MaxNsPerOp: c.fresh[2], AllocsPerOp: c.allocs}
		var out strings.Builder
		gate(&out, []Row{base}, []Row{fresh})
		if got := strings.TrimSpace(out.String()); !strings.HasSuffix(got, "  "+c.status) {
			t.Errorf("%s: %q, want status %q", c.name, got, c.status)
		}
	}
}

// TestGateFixture: the fixture passes against itself, fails against a
// baseline doctored to be twice as fast on its quiet rows, and fails on a
// zero-alloc row that starts allocating.
func TestGateFixture(t *testing.T) {
	rows, _, err := parseFile(t, "testdata/pass.txt")
	if err != nil {
		t.Fatal(err)
	}
	if failed, _, compared, _ := gate(io.Discard, rows, rows); failed != 0 || compared != len(rows) {
		t.Fatalf("against itself: %d of %d rows failed", failed, compared)
	}
	doctored := slices.Clone(rows)
	quiet := 0
	for i, r := range doctored {
		if r.MaxNsPerOp-r.MinNsPerOp < 0.1*r.NsPerOp {
			half := r.NsPerOp / 2
			doctored[i].NsPerOp, doctored[i].MinNsPerOp, doctored[i].MaxNsPerOp = half, half, half
			quiet++
		}
	}
	if quiet == 0 {
		t.Fatal("the fixture has no row with a spread under 10%")
	}
	if failed, _, _, _ := gate(io.Discard, doctored, rows); failed != quiet {
		t.Errorf("against the doctored baseline: %d rows failed, want the %d quiet ones", failed, quiet)
	}
	allocating := slices.Clone(rows)
	lost := 0
	for i := range allocating {
		if allocating[i].AllocsPerOp == 0 {
			allocating[i].AllocsPerOp = 1
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("the fixture has no zero-alloc row")
	}
	if failed, _, _, _ := gate(io.Discard, rows, allocating); failed != lost {
		t.Errorf("zero-alloc rows that allocate: %d rows failed, want %d", failed, lost)
	}
}
