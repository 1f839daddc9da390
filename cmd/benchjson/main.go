// Command benchjson turns `go test -bench` output into BENCH_core.json, the
// perf trajectory every perf claim cites, and gates a fresh run against a
// committed baseline.
//
// Each row is one Benchmark* function of the package that owns the kernel,
// named "<import path>.<benchmark name>", with the `pool=N` element of a
// sub-benchmark name moved into the row's pool field. For every row the
// report records how many samples were read (one per result line), the median,
// min and max ns/op, and the median allocs/op and B/op. The roofline rows
// place the reference workload's kernels (roofline.RunReference) under
// each Table 5 platform's roofs; they are deterministic, unlike the timings.
//
// With -base, every row that has a baseline row of the same name and pool
// is gated. It fails when it allocates at all where the baseline allocates
// nothing, or when every fresh sample exceeds every baseline sample by more
// than 25% of the baseline's median: a slowdown clear of both runs' spreads
// fails however noisy they are, so a large regression cannot hide behind the
// spread it widens. Otherwise the row reads "unresolved" when either run's
// own spread (max - min) exceeds 25% of that run's median, unless every
// fresh sample beats every baseline sample: such a pair cannot tell a
// regression from noise. A quiet pair fails when its median ns/op is more
// than 25% above the baseline's. This is benchmark/compare's rule with
// max - min in place of its quartile spread, which five samples would not
// support.
//
// benchjson exits non-zero when the input has a FAIL line, a benchmarked
// package without its closing "ok" line, or no benchmark rows at all, so a
// failed `go test` fails the pipeline even without pipefail.
//
// Usage: the Makefile's BENCH line runs the BENCH set in five
// `go test -count 1` rounds, so that each row's samples spread over the
// whole run and show the host drifting between rows, which five
// back-to-back samples of `-count 5` would hide.
//
//	make bench-json    # the BENCH set in five rounds, into BENCH_core.json
//	make bench-guard   # the same, gated with -base BENCH_core.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dronedse/roofline"
)

// tolerance is the gate's bound: a row fails when its median ns/op exceeds
// the baseline's median by more than this fraction.
const tolerance = 0.25

// Row is one benchmark's samples, summarised.
type Row struct {
	Name        string  `json:"name"`
	Pool        int     `json:"pool,omitempty"`
	Samples     int     `json:"samples"`
	NsPerOp     float64 `json:"ns_per_op"`
	MinNsPerOp  float64 `json:"min_ns_per_op"`
	MaxNsPerOp  float64 `json:"max_ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// key names a row as the gate matches it.
func (r Row) key() string {
	if r.Pool == 0 {
		return r.Name
	}
	return fmt.Sprintf("%s@pool%d", r.Name, r.Pool)
}

// RoofRow is one kernel's roofline placement under one platform's
// ceilings: the arithmetic intensity from the measured work ledger and the
// model's attainable throughput against that platform's compute roof.
type RoofRow struct {
	Platform    string  `json:"platform"`
	Kernel      string  `json:"kernel"`
	Ops         uint64  `json:"ops"`
	AI          float64 `json:"ai_ops_per_byte"`
	AttainMops  float64 `json:"attainable_mops"`
	MemoryBound bool    `json:"memory_bound"`
	RoofFrac    float64 `json:"roof_frac"`
}

// Report is the BENCH_core.json schema. GoMaxProcs is the value the
// benchmarks ran at, read from the "-N" suffix go test gives their names.
type Report struct {
	GoMaxProcs int       `json:"go_max_procs"`
	NumCPU     int       `json:"num_cpu"`
	GoVersion  string    `json:"go_version"`
	Results    []Row     `json:"results"`
	Roofline   []RoofRow `json:"roofline"`
}

// sample is one benchmark result line.
type sample struct{ ns, allocs, bytes float64 }

// parse reads go test -bench -benchmem output to its end and returns one
// row per benchmark, in first-seen order, and the GOMAXPROCS the rows ran
// at.
func parse(r io.Reader) ([]Row, int, error) {
	var (
		pkg     string
		open    []string // packages benchmarked and not yet closed by "ok"
		order   []Row
		samples = map[string][]sample{}
		procs   = 0
		failed  error
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case failed != nil:
			// Read on, so the whole failure report is echoed.
		case strings.HasPrefix(line, "FAIL") || strings.Contains(line, "--- FAIL") || strings.HasPrefix(line, "panic:"):
			failed = fmt.Errorf("go test failed: %s", line)
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			open = append(open, pkg)
		case len(fields) >= 2 && fields[0] == "ok":
			open = slices.DeleteFunc(open, func(p string) bool { return p == fields[1] })
		case strings.HasPrefix(line, "Benchmark") && len(fields) >= 4:
			if pkg == "" {
				return nil, 0, fmt.Errorf("benchmark line before any \"pkg:\" line: %s", line)
			}
			row, n, err := parseName(pkg, fields[0])
			if err != nil {
				return nil, 0, err
			}
			if procs != 0 && n != procs {
				return nil, 0, fmt.Errorf("mixed GOMAXPROCS: %d and %d", procs, n)
			}
			procs = n
			s, err := parseMetrics(fields[2:])
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", fields[0], err)
			}
			if _, seen := samples[row.key()]; !seen {
				order = append(order, row)
			}
			samples[row.key()] = append(samples[row.key()], s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if failed != nil {
		return nil, 0, failed
	}
	if len(open) > 0 {
		return nil, 0, fmt.Errorf("no ok line for %s", strings.Join(open, ", "))
	}
	if len(order) == 0 {
		return nil, 0, errors.New("no benchmark results in the input")
	}
	for i := range order {
		order[i].summarise(samples[order[i].key()])
	}
	return order, procs, nil
}

// parseName splits a benchmark name such as "BenchmarkBatch/n=16/pool=2-8"
// into a row of pkg and the GOMAXPROCS suffix (1 when go test omits it).
func parseName(pkg, name string) (Row, int, error) {
	procs := 1
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	row := Row{}
	var parts []string
	for _, part := range strings.Split(name, "/") {
		if v, ok := strings.CutPrefix(part, "pool="); ok {
			pool, err := strconv.Atoi(v)
			if err != nil || pool < 1 {
				return Row{}, 0, fmt.Errorf("%s: bad pool %q", name, v)
			}
			row.Pool = pool
			continue
		}
		parts = append(parts, part)
	}
	row.Name = pkg + "." + strings.Join(parts, "/")
	return row, procs, nil
}

// parseMetrics reads the "value unit" pairs after a result line's
// iteration count.
func parseMetrics(fields []string) (sample, error) {
	var s sample
	var haveNs bool
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return sample{}, fmt.Errorf("bad value %q", fields[i])
		}
		switch fields[i+1] {
		case "ns/op":
			s.ns, haveNs = v, true
		case "allocs/op":
			s.allocs = v
		case "B/op":
			s.bytes = v
		}
	}
	if !haveNs {
		return sample{}, errors.New("no ns/op")
	}
	return s, nil
}

// summarise fills the row's statistics from its samples.
func (r *Row) summarise(ss []sample) {
	col := func(f func(sample) float64) []float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		sort.Float64s(xs)
		return xs
	}
	ns := col(func(s sample) float64 { return s.ns })
	r.Samples = len(ss)
	r.NsPerOp, r.MinNsPerOp, r.MaxNsPerOp = median(ns), ns[0], ns[len(ns)-1]
	r.AllocsPerOp = int64(median(col(func(s sample) float64 { return s.allocs })))
	r.BytesPerOp = int64(median(col(func(s sample) float64 { return s.bytes })))
}

// median of sorted, non-empty xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// gate prints one line per fresh row that has a baseline row, in key
// order, and counts the rows failed, unresolved, compared, and skipped for
// want of a baseline.
func gate(w io.Writer, base, fresh []Row) (failed, unresolved, compared, skipped int) {
	baseRows := make(map[string]Row, len(base))
	for _, r := range base {
		baseRows[r.key()] = r
	}
	rows := slices.Clone(fresh)
	sort.Slice(rows, func(i, j int) bool { return rows[i].key() < rows[j].key() })
	for _, nr := range rows {
		br, ok := baseRows[nr.key()]
		if !ok || br.NsPerOp <= 0 {
			skipped++
			continue
		}
		compared++
		bound := tolerance * br.NsPerOp
		noisy := br.MaxNsPerOp-br.MinNsPerOp > bound || nr.MaxNsPerOp-nr.MinNsPerOp > tolerance*nr.NsPerOp
		status := "ok"
		switch {
		case br.AllocsPerOp == 0 && nr.AllocsPerOp != 0:
			status = fmt.Sprintf("FAIL (%d allocs/op, baseline 0)", nr.AllocsPerOp)
			failed++
		case nr.MinNsPerOp-br.MaxNsPerOp > bound:
			status = "FAIL"
			failed++
		case noisy && nr.MaxNsPerOp >= br.MinNsPerOp:
			status = "unresolved"
			unresolved++
		case !noisy && nr.NsPerOp-br.NsPerOp > bound:
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%-56s %12.0f -> %12.0f ns/op  %5.2fx  %s\n",
			nr.key(), br.NsPerOp, nr.NsPerOp, nr.NsPerOp/br.NsPerOp, status)
	}
	return failed, unresolved, compared, skipped
}

// roofRows places the reference workload's kernels under each platform.
func roofRows() ([]RoofRow, error) {
	ref, err := roofline.RunReference()
	if err != nil {
		return nil, err
	}
	var rows []RoofRow
	for i, c := range ref.Report.Ceilings {
		for _, pl := range ref.Report.Placements[i] {
			rows = append(rows, RoofRow{
				Platform:    c.Platform,
				Kernel:      pl.Name,
				Ops:         pl.Ops,
				AI:          pl.AI,
				AttainMops:  pl.Attainable / 1e6,
				MemoryBound: pl.MemoryBound,
				RoofFrac:    pl.RoofFrac,
			})
		}
	}
	return rows, nil
}

func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func writeReport(rep Report, out string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func run(in io.Reader, out, basePath string) error {
	var base Report
	if basePath != "" {
		var err error
		if base, err = loadReport(basePath); err != nil {
			return err
		}
	}
	rows, procs, err := parse(in)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r.Pool > runtime.NumCPU() {
			return fmt.Errorf("%s: pool %d is above NumCPU %d", r.Name, r.Pool, runtime.NumCPU())
		}
	}
	roof, err := roofRows()
	if err != nil {
		return err
	}
	rep := Report{
		GoMaxProcs: procs,
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Results:    rows,
		Roofline:   roof,
	}
	if err := writeReport(rep, out); err != nil {
		return err
	}
	if basePath == "" {
		return nil
	}
	failed, unresolved, compared, skipped := gate(os.Stderr, base.Results, rows)
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "(%d rows without a baseline row skipped)\n", skipped)
	}
	if compared == 0 {
		return fmt.Errorf("no rows in common with %s", basePath)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d rows degraded beyond %.0f%% of the %s baseline or lost zero allocs/op; "+
			"if deliberate, re-baseline with `make bench-json` and commit BENCH_core.json",
			failed, compared, tolerance*100, basePath)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d rows within %.0f%% of %s, %d unresolved\n",
		compared-unresolved, tolerance*100, basePath, unresolved)
	return nil
}

func main() {
	out := flag.String("o", "-", "write the report to this file (- for stdout)")
	base := flag.String("base", "", "gate the rows against this baseline report")
	flag.Parse()
	// Echo the go test output, which the pipe would otherwise hide until
	// the end of the run.
	if err := run(io.TeeReader(os.Stdin, os.Stderr), *out, *base); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
