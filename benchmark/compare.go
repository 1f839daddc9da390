package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// runSet maps workload → metric → one value per run.
type runSet map[string]map[string][]float64

// loadRuns reads saved benchmark output. A file may hold any number of
// runs: each "# workload" header names the workload of the JSON result
// lines after it. Runs whose outputs were incorrect are left out.
func loadRuns(paths []string) (runSet, error) {
	rs := runSet{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		workload := ""
		for sc.Scan() {
			line := sc.Text()
			if fields := strings.Fields(line); len(fields) >= 3 && fields[0] == "#" && fields[1] == "workload" {
				workload = fields[2]
				continue
			}
			if !strings.HasPrefix(line, "{") {
				continue
			}
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			if workload == "" {
				f.Close()
				return nil, fmt.Errorf("%s: result before any '# workload' header", p)
			}
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "benchmark compare: %s: skipping an incorrect %s run\n", p, workload)
				continue
			}
			if rs[workload] == nil {
				rs[workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				rs[workload][name] = append(rs[workload][name], m.Value)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return rs, nil
}

// compareMain implements "compare A.txt... -- B.txt...": for every
// workload and metric present on both sides it prints each side's median
// and quartiles and a verdict for B against A. It exits 1 when any metric
// is worse.
func compareMain(args []string, out io.Writer) int {
	sep := slices.Index(args, "--")
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare PARENT.txt... -- CHANGE.txt...")
		return 2
	}
	a, err := loadRuns(args[:sep])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := loadRuns(args[sep+1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(out, "%-15s %-38s %-6s %5s %-30s %5s %-30s %s\n",
		"workload", "metric", "unit", "n(A)", "A median [q1, q3]", "n(B)", "B median [q1, q3]", "verdict")
	for _, w := range workloads {
		for _, def := range append(slices.Clone(endToEnd), perLayer...) {
			va, vb := a[w.name][def.name], b[w.name][def.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(def, va, vb)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(out, "%-15s %-38s %-6s %5d %-30s %5d %-30s %s\n",
				w.name, def.name, def.unit, len(va), summary(va), len(vb), summary(vb), v)
		}
	}
	return code
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q2, q1, q3)
}
