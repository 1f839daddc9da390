package microarch

import "testing"

// TestIsolationLadder verifies the §2.2 deployment argument quantitatively,
// and in particular its STRONG form: the paper requires the inner loop not
// be co-located "on the same computation core or even the same unit". A
// dedicated core eliminates the private-structure pollution (TLB, branch
// predictor) but the shared LLC still throttles the control loop — which is
// exactly why fielded drones give the inner loop its own processor (solo).
func TestIsolationLadder(t *testing.T) {
	r := figure15Seed1()
	solo, shared := r.Autopilot, r.AutopilotWithSLAM

	// IPC ladder: solo >= dedicated core > shared core.
	if !(solo.IPC >= r.DedicatedCore.IPC && r.DedicatedCore.IPC > shared.IPC) {
		t.Errorf("IPC ladder violated: solo %.3f, dedicated %.3f, shared %.3f",
			solo.IPC, r.DedicatedCore.IPC, shared.IPC)
	}
	// The dedicated core must NOT recover the bulk of the loss: the
	// shared LLC keeps bleeding the control loop (the paper's "or even
	// the same unit").
	lost := solo.IPC - shared.IPC
	recovered := r.DedicatedCore.IPC - shared.IPC
	if recovered > 0.6*lost {
		t.Errorf("dedicated core recovered %.0f%% of the IPC loss; a shared LLC should still hurt",
			100*recovered/lost)
	}
	if recovered <= 0 {
		t.Error("dedicated core recovered nothing; private structures should help some")
	}
	// Private TLB: dedicated-core TLB misses near solo, far below shared.
	if r.DedicatedCore.TLBMisses > solo.TLBMisses*3/2 {
		t.Errorf("dedicated-core TLB misses %d not near solo %d",
			r.DedicatedCore.TLBMisses, solo.TLBMisses)
	}
	if shared.TLBMisses < r.DedicatedCore.TLBMisses*2 {
		t.Errorf("shared-core TLB misses %d should far exceed dedicated %d",
			shared.TLBMisses, r.DedicatedCore.TLBMisses)
	}
	// Branch predictor: private state means no pollution.
	if r.DedicatedCore.BranchMissRate > solo.BranchMissRate*1.2 {
		t.Errorf("dedicated-core branch misses %.4f polluted vs solo %.4f",
			r.DedicatedCore.BranchMissRate, solo.BranchMissRate)
	}
	// LLC sharing still leaks: dedicated-core LLC miss rate above solo.
	if r.DedicatedCore.LLCMissRate <= solo.LLCMissRate {
		t.Error("shared LLC should still cost the dedicated core something")
	}
}

func TestDedicatedCoresDeterministic(t *testing.T) {
	a := RunDedicatedCores(NewAutopilotWorkload(3), NewSLAMWorkload(4), 5000, 40, 8)
	b := RunDedicatedCores(NewAutopilotWorkload(3), NewSLAMWorkload(4), 5000, 40, 8)
	if a != b {
		t.Error("same-seed dual-core runs diverge")
	}
}
