package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestRegistryMatchesBenchmarkJSON keeps the metric tables the program
// prints in step with what BENCHMARK.json declares.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	bm := readBenchmarkJSON(t)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bm.EndToEnd), len(endToEnd))
	}
	for i, m := range bm.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d) || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bm.PerLayer), len(perLayer))
	}
	for i, m := range bm.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d) {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

// TestWorkloadsSmoke runs every workload, plain and traced, at 1% size and
// checks the result line: every metric BENCHMARK.json lists for the mode
// is printed, finite and in its unit, and the outputs were correct. For
// the traced run it also checks the span file is a well-formed forest
// whose leaf spans all feed a listed per-layer share.
func TestWorkloadsSmoke(t *testing.T) {
	bm := readBenchmarkJSON(t)
	listed := map[string]bool{}
	for _, m := range bm.PerLayer {
		listed[m.Name] = true
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/plain"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				cfg := config{seed: 2, window: 20 * time.Millisecond, scale: 0.01, spans: spans}
				var out bytes.Buffer
				if !runWorkload(w, cfg, traced, &out) {
					t.Fatalf("run failed:\n%s", out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := map[string]string{}
				if traced {
					for _, m := range bm.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bm.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for n, unit := range want {
					m, ok := res.Metrics[n]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", n)
					case m.Unit != unit:
						t.Errorf("metric %s in %q, want %q", n, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", n, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
					}
				}
				if traced {
					checkSpanFile(t, spans, listed)
				}
			})
		}
	}
}

func checkSpanFile(t *testing.T, path string, listed map[string]bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	parents := map[int]bool{}
	for _, s := range spans {
		parents[s.Parent] = true
	}
	for _, s := range spans {
		if !parents[s.ID] && !listed[s.Name+".share"] {
			t.Errorf("leaf span %s has no per-layer share in BENCHMARK.json", s.Name)
		}
	}
}
