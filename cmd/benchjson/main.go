// Command benchjson measures the design-space engine's hot paths with the
// standard testing.Benchmark driver and writes the results as JSON
// (BENCH_core.json by default), so successive PRs can track the perf
// trajectory mechanically: each entry records ns/op, allocs/op, and the
// pool size it ran at.
//
// Usage:
//
//	benchjson                 # quick suite -> BENCH_core.json
//	benchjson -o - -seqs 2    # print to stdout, truncated SLAM suite
//	benchjson -quick -o -     # smoke subset (resolve, scenario/batch/fleet kernels)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"dronedse/bench"
	"dronedse/core"
	"dronedse/dataset"
	"dronedse/faultx"
	"dronedse/fleet"
	"dronedse/mission"
	"dronedse/parallelx"
	"dronedse/roofline"
	"dronedse/scenario"
	"dronedse/slam"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Pool        int     `json:"pool"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
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

// Report is the BENCH_core.json schema. GoMaxProcsRequested is the -procs
// value the run asked for; GoMaxProcs is what runtime.GOMAXPROCS actually
// reports afterwards — recording both keeps the file honest about whether a
// multi-core request ran on a smaller machine.
type Report struct {
	GoMaxProcsRequested int       `json:"go_max_procs_requested"`
	GoMaxProcs          int       `json:"go_max_procs"`
	NumCPU              int       `json:"num_cpu"`
	GoVersion           string    `json:"go_version"`
	Results             []Result  `json:"results"`
	Roofline            []RoofRow `json:"roofline,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_core.json", "output file (- for stdout)")
	seqs := flag.Int("seqs", 2, "SLAM sequences for the suite benchmark (0 = all 11, slow)")
	quick := flag.Bool("quick", false, "smoke subset only (resolve kernels, scenario_flight, workload kernels)")
	procs := flag.Int("procs", runtime.NumCPU(), "runtime.GOMAXPROCS for the whole run")
	flag.Parse()
	runtime.GOMAXPROCS(*procs)

	pools := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		pools = append(pools, n)
	}

	spec := core.DefaultSpec()
	p := core.DefaultParams()
	cells := []int{1, 2, 3, 4, 5, 6}

	rep := Report{
		GoMaxProcsRequested: *procs,
		GoMaxProcs:          runtime.GOMAXPROCS(0),
		NumCPU:              runtime.NumCPU(),
		GoVersion:           runtime.Version(),
	}

	// measureN runs fn under testing.Benchmark at each pool size and divides
	// every per-op figure by perOp — the batch kernels report per-flight
	// costs this way (one op = a whole batch of perOp flights).
	measureN := func(name string, poolSizes []int, perOp int, fn func(b *testing.B)) {
		for _, pool := range poolSizes {
			prev := parallelx.SetPoolSize(pool)
			r := testing.Benchmark(fn)
			parallelx.SetPoolSize(prev)
			rep.Results = append(rep.Results, Result{
				Name:        name,
				Pool:        pool,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N) / float64(perOp),
				AllocsPerOp: r.AllocsPerOp() / int64(perOp),
				BytesPerOp:  r.AllocedBytesPerOp() / int64(perOp),
				N:           r.N,
			})
			fmt.Fprintf(os.Stderr, "%-28s pool=%-2d %12.0f ns/op  (n=%d)\n",
				name, pool, float64(r.T.Nanoseconds())/float64(r.N)/float64(perOp), r.N)
		}
	}
	measure := func(name string, poolSizes []int, fn func(b *testing.B)) {
		measureN(name, poolSizes, 1, fn)
	}
	// medianAllocs measures fn's per-call mallocs and bytes directly from
	// runtime.MemStats with the collector pinned off, and returns the median
	// of n runs — robust to the odd run whose map growth lands differently.
	medianAllocs := func(n int, fn func()) (allocs, bytes int64) {
		prevGC := debug.SetGCPercent(-1)
		defer debug.SetGCPercent(prevGC)
		fn() // warm
		ma := make([]int64, n)
		mb := make([]int64, n)
		var m0, m1 runtime.MemStats
		for i := 0; i < n; i++ {
			runtime.ReadMemStats(&m0)
			fn()
			runtime.ReadMemStats(&m1)
			ma[i] = int64(m1.Mallocs - m0.Mallocs)
			mb[i] = int64(m1.TotalAlloc - m0.TotalAlloc)
		}
		sort.Slice(ma, func(i, j int) bool { return ma[i] < ma[j] })
		sort.Slice(mb, func(i, j int) bool { return mb[i] < mb[j] })
		return ma[n/2], mb[n/2]
	}
	serial := []int{1}

	measure("resolve_uncached", serial, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Resolve(spec, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	measure("resolve_cached_warm", serial, func(b *testing.B) {
		core.ResetResolveCache()
		core.ResolveCached(spec, p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.ResolveCached(spec, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Scenario-engine kernel: one full closed-loop reference flight (build,
	// arm, box mission, land) per op — the wiring + flight cost every
	// scenario-based tool pays.
	measure("scenario_flight", serial, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := scenario.Run(scenario.Spec{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Completed {
				b.Fatal("reference mission did not complete")
			}
		}
	})
	// Batch-engine kernels: N reference flights stepped in lock-step on one
	// scenario.Batch, reported per flight. Build/arm happen outside the
	// timer, so ns and allocs measure exactly the steady-state stepping the
	// fleet-simulation north star pays — the alloc column is the
	// zero-steady-state-allocation contract (the residual is the one
	// Outcomes slice, amortized over the batch).
	batchKernel := func(size int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				specs := make([]scenario.Spec, size)
				for j := range specs {
					specs[j] = scenario.Spec{Seed: int64(j + 1)}
				}
				bt := scenario.NewBatch(specs)
				bt.Start()
				b.StartTimer()
				results, errs := bt.Run()
				b.StopTimer()
				for j := range errs {
					if errs[j] != nil {
						b.Fatal(errs[j])
					}
					if !results[j].Completed {
						b.Fatal("lane mission did not complete")
					}
				}
			}
		}
	}
	for _, size := range []int{1, 16, 64} {
		measureN(fmt.Sprintf("scenario_batch%d", size), serial, size, batchKernel(size))
	}
	// Fleet-server kernel: 256 resident hover flights stepped through the
	// whole fleetd engine path — admission bookkeeping, one batch TickN,
	// telemetry publish into subscriber-less hubs — reported per drone-step.
	// The delta against scenario_batch is the multi-tenancy overhead.
	fleetLanes, fleetStride := 256, 100
	measureN("fleet_step256", pools, fleetLanes*fleetStride, func(b *testing.B) {
		srv := fleet.New(fleet.Config{MaxLanes: fleetLanes, DropArtifacts: true})
		specs := make([]fleet.JobSpec, fleetLanes)
		hover := &mission.WireSpec{KindName: "hover"}
		for j := range specs {
			specs[j] = fleet.JobSpec{Seed: int64(j + 1), Workload: hover, MaxSeconds: 3600}
		}
		if _, err := srv.SubmitAll(specs); err != nil {
			b.Fatal(err)
		}
		srv.Advance(10000) // through takeoff into steady hover
		if st := srv.Stats(); st.Live != fleetLanes {
			b.Fatalf("%d of %d lanes live after warmup", st.Live, fleetLanes)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.Advance(fleetStride)
		}
		b.StopTimer()
		srv.Shutdown()
	})
	// Workload kernels: one full closed-loop flight per op for each
	// MAVBench-style workload, plus a fault-campaign variant (fault-free
	// baseline + severe compound fault) per workload. Each flight kernel
	// also checks the run resolves a positive Equation-7 compute
	// flight-time cost — the figure the paper prices companion compute in.
	for _, wk := range []struct {
		name string
		wl   mission.Workload
	}{
		{"workload_coverage", mission.Coverage{}},
		{"workload_delivery", mission.DefaultDelivery()},
		{"workload_follow", mission.Follow{}},
	} {
		wk := wk
		measure(wk.name, serial, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := scenario.Run(scenario.Spec{Seed: 1, MaxSeconds: 120, Workload: wk.wl})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Workload.Completed {
					b.Fatalf("%s did not complete", wk.name)
				}
				if res.ComputeFlightCostMin() <= 0 {
					b.Fatalf("%s: no Equation-7 flight-time cost", wk.name)
				}
			}
		})
		measure(wk.name+"_campaign", serial, func(b *testing.B) {
			scenarios := []faultx.Scenario{faultx.SevereScenario(1)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := faultx.Run(scenarios, faultx.Config{MaxSeconds: 90, Workload: wk.wl}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	if *quick {
		writeReport(rep, *out)
		return
	}

	measure("sweep_capacity_cold", pools, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ResetResolveCache()
			if pts := core.SweepCapacity(spec, p, 1000, 8000, 100); len(pts) == 0 {
				b.Fatal("empty sweep")
			}
		}
	})
	measure("best_config_cold", pools, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ResetResolveCache()
			if _, ok := core.BestConfig(spec, p, cells, 1000, 8000, 250); !ok {
				b.Fatal("no feasible config")
			}
		}
	})
	measure("best_config_warm", serial, func(b *testing.B) {
		core.ResetResolveCache()
		core.BestConfig(spec, p, cells, 1000, 8000, 250)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := core.BestConfig(spec, p, cells, 1000, 8000, 250); !ok {
				b.Fatal("no feasible config")
			}
		}
	})
	measure("pareto_payload_cold", pools, func(b *testing.B) {
		payloads := []float64{0, 100, 200, 300, 500, 750, 1000}
		for i := 0; i < b.N; i++ {
			core.ResetResolveCache()
			if pts := core.ParetoPayloadFrontier(spec, p, payloads); len(pts) == 0 {
				b.Fatal("empty frontier")
			}
		}
	})
	measure("figure10_450mm", pools, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ResetResolveCache()
			bench.RunFigure10(450, p)
		}
	})
	// SLAM front-end kernels (this PR's hot paths). Pool sizes 1/2/8 track
	// the serial floor, the dual-core win, and the saturation point; outputs
	// are pool-invariant (see slam/parallel_test.go), so only timing moves.
	slamPools := []int{1, 2, 8}
	seq, err := dataset.Generate(dataset.EuRoCSpecs()[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	h := slam.NewBenchHarness(seq, 30)
	measure("slam_detect", slamPools, func(b *testing.B) {
		h.Detect() // warm detector scratch at this pool size
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Detect()
		}
	})
	measure("slam_match_projection", slamPools, func(b *testing.B) {
		h.MatchByProjection()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.MatchByProjection()
		}
	})
	measure("slam_ba_local", slamPools, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.LocalBA()
		}
	})
	// slam_run_sequence reports ns/op from testing.Benchmark like every other
	// kernel, but takes its alloc column from a GC-pinned median of warmed
	// runs instead of the benchmark mean: the run's ~16k allocations carry a
	// few allocs of run-to-run jitter (map overflow-bucket layout depends on
	// insertion order), and a mean over testing.Benchmark's small N would make
	// the pool-1 vs pool-8 alloc comparison — the pool-independence contract
	// this file is the record of — a coin flip.
	for _, pool := range slamPools {
		prev := parallelx.SetPoolSize(pool)
		r := testing.Benchmark(func(b *testing.B) {
			slam.RunSequence(seq) // warm this pool size's worker scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slam.RunSequence(seq)
			}
		})
		allocs, bytes := medianAllocs(5, func() { slam.RunSequence(seq) })
		parallelx.SetPoolSize(prev)
		rep.Results = append(rep.Results, Result{
			Name:        "slam_run_sequence",
			Pool:        pool,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: allocs,
			BytesPerOp:  bytes,
			N:           r.N,
		})
		fmt.Fprintf(os.Stderr, "%-28s pool=%-2d %12.0f ns/op  (n=%d)\n",
			"slam_run_sequence", pool, float64(r.T.Nanoseconds())/float64(r.N), r.N)
	}

	// Fault-campaign kernel: two full closed-loop flights (fault-free
	// baseline + severe compound) per op. Scales with the pool because the
	// flights are independent; the campaign table itself is pool-invariant.
	measure("fault_campaign", []int{1, 2}, func(b *testing.B) {
		scenarios := []faultx.Scenario{faultx.SevereScenario(1)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := faultx.Run(scenarios, faultx.Config{MaxSeconds: 120}); err != nil {
				b.Fatal(err)
			}
		}
	})

	seqName := fmt.Sprintf("slam_suite_%dseq", *seqs)
	if *seqs == 0 {
		seqName = "slam_suite_full"
	}
	measure(seqName, pools, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.RunFigure17(*seqs); err != nil {
				b.Fatal(err)
			}
		}
	})

	rows, err := rooflineRows(seq)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep.Roofline = rows

	writeReport(rep, *out)
}

// rooflineRows ledgers the reference workload (the MH01 sequence already
// generated for the SLAM benchmarks, the loop-closing orbit, and the
// reference box-mission flight) and places every kernel under each Table 5
// platform's roofs. The ledgers are deterministic functions of the
// workload, so these rows are bit-stable across runs and pool sizes —
// unlike the timing results above, a diff here always means a real change
// to the pipeline's arithmetic or the byte models.
func rooflineRows(mh01 *dataset.Sequence) ([]RoofRow, error) {
	st := slam.RunSequence(mh01).Stats
	orbit, err := dataset.Generate(roofline.LoopOrbitSpec())
	if err != nil {
		return nil, err
	}
	ost := slam.RunSequence(orbit).Stats
	st.FeatureExtractionOps += ost.FeatureExtractionOps
	st.MatchingOps += ost.MatchingOps
	st.LocalBAOps += ost.LocalBAOps
	st.GlobalBAOps += ost.GlobalBAOps
	st.PoseGraphOps += ost.PoseGraphOps
	st.Frames += ost.Frames

	fres, err := scenario.Run(scenario.Spec{Seed: 42, MaxSeconds: 120})
	if err != nil {
		return nil, err
	}
	pts := append(roofline.FromSLAM(st, mh01.Cam.Width, mh01.Cam.Height),
		roofline.FromFlight(fres.EKFStats, fres.CtrlStats)...)
	roofRep := roofline.BuildReport(pts)
	var rows []RoofRow
	for i, c := range roofRep.Ceilings {
		for _, pl := range roofRep.Placements[i] {
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

func writeReport(rep Report, out string) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "wrote", out)
}
