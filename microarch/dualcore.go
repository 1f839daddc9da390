package microarch

// Dual-core isolation experiment (§2.2): "to ensure that the inner-loop
// control is in real time, the computations for autonomous tasks in the
// outer loop are not co-located on the same computation core or even the
// same unit as for the inner-loop control." This file models the middle
// option — separate cores on one SoC: private L1/TLB/branch state per core,
// a shared last-level cache — and shows how much of the Figure 15
// interference that removes (and how much LLC sharing still leaks).

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
