// Command benchguard is the perf-regression gate: it compares a freshly
// measured benchmark report against the committed BENCH_core.json baseline
// and fails if any kernel's ns/op degraded beyond the tolerance (default
// +25%), or if a kernel whose baseline allocs/op is 0 allocates at all: the
// zero-alloc kernels are gated exactly. Rows are matched by (name, pool) and
// printed in sorted key order; rows present in only one file (renamed
// kernels, machines with different pool sets) are skipped with a notice, so
// the guard never fails on coverage drift — only on speed and allocation.
//
// A failure means either a real regression (fix it) or a deliberate
// tradeoff; re-baseline deliberately with
//
//	make bench-json   # regenerates BENCH_core.json, commit the diff
//
// Usage:
//
//	benchguard -new /tmp/bench_new.json               # vs BENCH_core.json
//	benchguard -base old.json -new new.json -tol 1.10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// Row mirrors the benchjson result schema (the fields the guard reads).
type Row struct {
	Name        string  `json:"name"`
	Pool        int     `json:"pool"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report mirrors the BENCH_core.json envelope.
type Report struct {
	Results []Row `json:"results"`
}

func load(path string) (map[string]Row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]Row, len(rep.Results))
	for _, r := range rep.Results {
		out[fmt.Sprintf("%s@pool%d", r.Name, r.Pool)] = r
	}
	return out, nil
}

// gate prints one line per row of newRows that has a baseline counterpart,
// in sorted key order, and counts the rows compared, the rows failed (ns/op
// beyond tol times the baseline, or any allocation where the baseline has
// none) and the rows skipped for want of a baseline.
func gate(w io.Writer, baseRows, newRows map[string]Row, tol float64) (failed, compared, skipped int) {
	keys := make([]string, 0, len(newRows))
	for key := range newRows {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		nr := newRows[key]
		br, ok := baseRows[key]
		if !ok || br.NsPerOp <= 0 {
			skipped++
			continue
		}
		compared++
		ratio := nr.NsPerOp / br.NsPerOp
		status := "ok"
		if ratio > tol {
			status = "FAIL"
		}
		if br.AllocsPerOp == 0 && nr.AllocsPerOp != 0 {
			status = fmt.Sprintf("FAIL (%d allocs/op, baseline 0)", nr.AllocsPerOp)
		}
		if status != "ok" {
			failed++
		}
		fmt.Fprintf(w, "%-36s %12.0f -> %12.0f ns/op  %5.2fx  %s\n",
			key, br.NsPerOp, nr.NsPerOp, ratio, status)
	}
	return failed, compared, skipped
}

func main() {
	base := flag.String("base", "BENCH_core.json", "committed baseline report")
	newf := flag.String("new", "", "freshly measured report to gate (required)")
	tol := flag.Float64("tol", 1.25, "failure threshold: new ns/op vs baseline")
	flag.Parse()
	if *newf == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -new is required")
		os.Exit(2)
	}
	baseRows, err := load(*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	newRows, err := load(*newf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}

	failed, compared, skipped := gate(os.Stdout, baseRows, newRows, *tol)
	if skipped > 0 {
		fmt.Printf("(%d rows without a baseline counterpart skipped)\n", skipped)
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no comparable rows between", *base, "and", *newf)
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr,
			"benchguard: %d of %d kernels degraded beyond %.0f%% of the %s baseline or lost zero allocs/op.\n"+
				"If deliberate, re-baseline with `make bench-json` and commit the new BENCH_core.json.\n",
			failed, compared, (*tol-1)*100, *base)
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d kernels within %.0f%% of baseline\n", compared, (*tol-1)*100)
}
