package microarch

// Dual-core isolation experiment (§2.2): "to ensure that the inner-loop
// control is in real time, the computations for autonomous tasks in the
// outer loop are not co-located on the same computation core or even the
// same unit as for the inner-loop control." This file models the middle
// option — separate cores on one SoC: private L1/TLB/branch state per core,
// a shared last-level cache — and shows how much of the Figure 15
// interference that removes (and how much LLC sharing still leaks).

import "dronedse/parallelx"

// NewCoreSharedL2 builds a core with private L1/TLB/BP using the provided
// shared L2.
func NewCoreSharedL2(l2 *Cache) *Core {
	c := NewCore()
	c.L2 = l2
	return c
}

// RunDedicatedCores executes the primary and secondary workloads on two
// cores that share only the L2, interleaving bursts on the same schedule as
// RunCoResident so the LLC pressure is comparable. It reports the PRIMARY
// workload's metrics.
func RunDedicatedCores(primary, secondary Workload, totalIters, quantum, secondaryScale int) Metrics {
	shared := NewCache(512*1024, 16, 64)
	p := NewCoreSharedL2(shared)
	s := NewCoreSharedL2(shared)
	return interleave(p, s, primary, secondary, totalIters, quantum, secondaryScale)
}

// IsolationResult extends Figure 15 with the dedicated-core and
// dedicated-unit (separate RPi) configurations.
type IsolationResult struct {
	Solo          Metrics // autopilot alone (dedicated unit)
	SharedCore    Metrics // Figure 15's co-resident case
	DedicatedCore Metrics // own core, shared LLC
}

// RunIsolationStudy measures the autopilot under the three §2.2 deployment
// options.
func RunIsolationStudy(seed int64, iters int) IsolationResult {
	var out IsolationResult
	parallelx.Do(
		func() { out.Solo = RunSolo(NewAutopilotWorkload(seed), iters) },
		func() {
			out.SharedCore = RunCoResident(
				NewAutopilotWorkload(seed), NewSLAMWorkload(seed+1), iters, 40, 8)
		},
		func() {
			out.DedicatedCore = RunDedicatedCores(
				NewAutopilotWorkload(seed), NewSLAMWorkload(seed+1), iters, 40, 8)
		},
	)
	return out
}
