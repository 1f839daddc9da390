package microarch

import (
	"math/rand"
	"sync"
	"testing"
)

// figure15Seed1 is RunFigure15(1, 30000), simulated once for the Figure 15
// and isolation-ladder tests that both read it.
var figure15Seed1 = sync.OnceValue(func() Figure15Result { return RunFigure15(1, 30000) })

// missRate is misses over accesses, 0 before the first access.
func missRate(misses, accesses uint64) float64 {
	if accesses == 0 {
		return 0
	}
	return float64(misses) / float64(accesses)
}

// ipc is retired instructions per cycle.
func ipc(c *Core) float64 { return float64(c.Instructions) / c.Cycles }

func TestCacheBasics(t *testing.T) {
	c := NewCache(1024, 2, 64) // 8 sets x 2 ways
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("warm access missed")
	}
	if !c.Access(32) { // same line
		t.Error("same-line access missed")
	}
	if mr := missRate(c.Misses, c.Accesses); mr >= 0.5 {
		t.Errorf("miss rate = %v", mr)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(128, 2, 64) // 1 set, 2 ways
	c.Access(0)
	c.Access(64)
	c.Access(0)   // touch 0: now 64 is LRU
	c.Access(128) // evicts 64
	if !c.Access(0) {
		t.Error("recently used line evicted")
	}
	if c.Access(64) {
		t.Error("LRU line survived eviction")
	}
}

func TestCacheCapacityBehavior(t *testing.T) {
	c := NewCache(32*1024, 4, 64)
	// A working set half the cache: after warmup, everything hits.
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 16*1024; a += 64 {
			c.Access(a)
		}
	}
	c2 := NewCache(32*1024, 4, 64)
	// A working set 4x the cache: persistent misses (cycling defeats LRU).
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 128*1024; a += 64 {
			c2.Access(a)
		}
	}
	if mr := missRate(c.Misses, c.Accesses); mr > 0.3 {
		t.Errorf("fitting working set miss rate = %v", mr)
	}
	if mr := missRate(c2.Misses, c2.Accesses); mr < 0.9 {
		t.Errorf("thrashing working set miss rate = %v", mr)
	}
}

func TestTLB(t *testing.T) {
	tl := NewTLB(4)
	for p := uint64(0); p < 4; p++ {
		tl.Access(p << 12)
	}
	for p := uint64(0); p < 4; p++ {
		if !tl.Access(p << 12) {
			t.Errorf("resident page %d missed", p)
		}
	}
	tl.Access(99 << 12) // evicts LRU (page 0)
	if tl.Access(0) {
		t.Error("evicted page hit")
	}
}

func TestBranchPredictorLearnsLoops(t *testing.T) {
	bp := NewBranchPredictor(10)
	// Always-taken branch: converges to near-zero misses.
	for i := 0; i < 1000; i++ {
		bp.Predict(0x40, true)
	}
	// Warmup fills the 12-bit history before the counters stabilize.
	if mr := missRate(bp.Misses, bp.Branches); mr > 0.02 {
		t.Errorf("always-taken miss rate = %v", mr)
	}
	// Random branch: ~50% misses.
	bp2 := NewBranchPredictor(10)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		bp2.Predict(0x80, r.Intn(2) == 0)
	}
	if mr := missRate(bp2.Misses, bp2.Branches); mr < 0.35 || mr > 0.65 {
		t.Errorf("random-branch miss rate = %v, want ~0.5", mr)
	}
}

func TestCoreIPCDegradesWithMisses(t *testing.T) {
	good := NewCore()
	for i := 0; i < 20000; i++ {
		good.Load(uint64(i%256) * 64 % 4096) // tiny hot set
		good.ALU(4)
	}
	bad := NewCore()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		bad.Load(uint64(r.Int63n(64 << 20))) // random in 64 MiB
		bad.ALU(4)
	}
	if ipc(bad) >= ipc(good)/2 {
		t.Errorf("random-access IPC %v not clearly below cached IPC %v", ipc(bad), ipc(good))
	}
}

func TestWorkloadCharacters(t *testing.T) {
	ap := RunSolo(NewAutopilotWorkload(1), 20000)
	sl := RunSolo(NewSLAMWorkload(2), 20000)
	// SLAM: larger footprint, worse in every Figure 15 metric.
	if sl.IPC >= ap.IPC {
		t.Errorf("SLAM IPC %v not below autopilot %v", sl.IPC, ap.IPC)
	}
	if sl.LLCMissRate <= ap.LLCMissRate {
		t.Error("SLAM LLC miss rate not above autopilot")
	}
	if sl.BranchMissRate <= ap.BranchMissRate {
		t.Error("SLAM branch miss rate not above autopilot")
	}
	if sl.TLBMissRate <= ap.TLBMissRate {
		t.Error("SLAM TLB miss rate not above autopilot")
	}
}

// TestFigure15 is the reproduction check for the paper's measured
// interference: co-locating SLAM with the autopilot raises the autopilot's
// TLB misses ~4.5x and cuts its IPC ~1.7x, with LLC and branch miss rates
// strictly higher.
func TestFigure15(t *testing.T) {
	r := figure15Seed1()
	tlbRatio := float64(r.AutopilotWithSLAM.TLBMisses) / float64(r.Autopilot.TLBMisses)
	if tlbRatio < 3.0 || tlbRatio > 6.5 {
		t.Errorf("TLB miss ratio = %.2f, paper reports 4.5x", tlbRatio)
	}
	ipcDrop := r.Autopilot.IPC / r.AutopilotWithSLAM.IPC
	if ipcDrop < 1.4 || ipcDrop > 2.2 {
		t.Errorf("IPC drop = %.2f, paper reports 1.7x", ipcDrop)
	}
	if r.AutopilotWithSLAM.LLCMissRate <= r.Autopilot.LLCMissRate {
		t.Error("co-resident LLC miss rate not above solo")
	}
	if r.AutopilotWithSLAM.BranchMissRate <= r.Autopilot.BranchMissRate {
		t.Error("co-resident branch miss rate not above solo")
	}
}

func TestFigure15Deterministic(t *testing.T) {
	a := RunFigure15(7, 5000)
	b := RunFigure15(7, 5000)
	if a != b {
		t.Error("same-seed Figure 15 runs diverge")
	}
}

func TestRunCoResidentShortTail(t *testing.T) {
	// totalIters not a multiple of quantum must still account everything.
	m := RunCoResident(NewAutopilotWorkload(1), NewSLAMWorkload(2), 105, 40, 2)
	if m.Instructions == 0 {
		t.Fatal("no instructions attributed")
	}
}
