// Package microarch is a trace-driven micro-architecture simulator used to
// reproduce Figure 15: the performance interference between the autopilot
// and SLAM when co-located on the Raspberry Pi. It models a Cortex-A-class
// in-order core: set-associative L1/L2 caches, a TLB, a gshare branch
// predictor, and a miss-penalty IPC model. Synthetic-but-working-set-
// faithful instruction traces for the autopilot (small, periodic, regular)
// and SLAM (large, irregular, data-dependent) are interleaved the way the
// scheduler interleaves the two processes, and the autopilot's TLB misses,
// LLC/branch miss rates, and IPC are measured solo vs. co-resident.
package microarch

import (
	"math/rand"

	"dronedse/mathx"
	"dronedse/parallelx"
)

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	// tags[set][way]; lru[set][way] holds a recency stamp.
	tags  [][]uint64
	valid [][]bool
	lru   [][]uint64
	stamp uint64

	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache of the given total size in bytes.
func NewCache(sizeBytes, ways, lineBytes int) *Cache {
	sets := sizeBytes / (ways * lineBytes)
	if sets < 1 {
		sets = 1
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	c := &Cache{sets: sets, ways: ways, lineShift: shift}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.lru = make([][]uint64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.valid[i] = make([]bool, ways)
		c.lru[i] = make([]uint64, ways)
	}
	return c
}

// Access looks up addr, filling on miss; returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	c.stamp++
	line := addr >> c.lineShift
	set := int(line % uint64(c.sets))
	tag := line / uint64(c.sets)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			c.lru[set][w] = c.stamp
			return true
		}
	}
	c.Misses++
	// LRU victim.
	victim, oldest := 0, c.lru[set][0]
	for w := 0; w < c.ways; w++ {
		if !c.valid[set][w] {
			victim = w
			break
		}
		if c.lru[set][w] < oldest {
			victim, oldest = w, c.lru[set][w]
		}
	}
	c.tags[set][victim] = tag
	c.valid[set][victim] = true
	c.lru[set][victim] = c.stamp
	return false
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// TLB is a fully-associative LRU translation buffer over 4 KiB pages.
type TLB struct {
	entries int
	pages   map[uint64]uint64 // page -> stamp
	stamp   uint64

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with the given entry count.
func NewTLB(entries int) *TLB {
	return &TLB{entries: entries, pages: make(map[uint64]uint64, entries)}
}

// Access translates addr, returning true on hit.
func (t *TLB) Access(addr uint64) bool {
	t.Accesses++
	t.stamp++
	page := addr >> 12
	if _, ok := t.pages[page]; ok {
		t.pages[page] = t.stamp
		return true
	}
	t.Misses++
	if len(t.pages) >= t.entries {
		var victim uint64
		oldest := t.stamp + 1
		for p, s := range t.pages {
			if s < oldest {
				victim, oldest = p, s
			}
		}
		delete(t.pages, victim)
	}
	t.pages[page] = t.stamp
	return false
}

// BranchPredictor is a gshare predictor with 2-bit saturating counters.
type BranchPredictor struct {
	table   []uint8
	history uint64
	mask    uint64

	Branches uint64
	Misses   uint64
}

// NewBranchPredictor builds a predictor with 2^bits entries.
func NewBranchPredictor(bits uint) *BranchPredictor {
	return &BranchPredictor{table: make([]uint8, 1<<bits), mask: 1<<bits - 1}
}

// Predict consumes a branch outcome and returns whether the prediction was
// correct.
func (b *BranchPredictor) Predict(pc uint64, taken bool) bool {
	b.Branches++
	idx := (pc ^ b.history) & b.mask
	pred := b.table[idx] >= 2
	if taken && b.table[idx] < 3 {
		b.table[idx]++
	}
	if !taken && b.table[idx] > 0 {
		b.table[idx]--
	}
	b.history = (b.history<<1 | boolBit(taken)) & b.mask
	if pred != taken {
		b.Misses++
		return false
	}
	return true
}

// MissRate returns mispredictions/branches.
func (b *BranchPredictor) MissRate() float64 {
	if b.Branches == 0 {
		return 0
	}
	return float64(b.Misses) / float64(b.Branches)
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// Core couples the structures into an in-order pipeline model with
// RPi-3B+-class parameters.
type Core struct {
	L1D *Cache
	L2  *Cache // last-level cache on the A53
	TLB *TLB
	BP  *BranchPredictor

	// Penalties in cycles.
	L1MissPenalty  float64 // L1 miss, L2 hit
	L2MissPenalty  float64 // to DRAM
	TLBMissPenalty float64 // table walk
	BPMissPenalty  float64
	BaseIPC        float64

	Instructions uint64
	Cycles       float64

	prefetch *StreamPrefetcher
}

// NewCore builds the RPi-class core model: 32 KiB L1D, 512 KiB shared L2
// (the LLC), 64-entry TLB, gshare 4k.
func NewCore() *Core {
	return &Core{
		L1D:            NewCache(32*1024, 4, 64),
		L2:             NewCache(512*1024, 16, 64),
		TLB:            NewTLB(64),
		BP:             NewBranchPredictor(12),
		L1MissPenalty:  8,
		L2MissPenalty:  90,
		TLBMissPenalty: 40,
		BPMissPenalty:  9,
		BaseIPC:        1.1,
	}
}

// Load executes one memory instruction at addr.
func (c *Core) Load(addr uint64) {
	if c.prefetch != nil {
		c.loadWithPrefetch(addr)
		return
	}
	c.Instructions++
	c.Cycles += 1 / c.BaseIPC
	if !c.TLB.Access(addr) {
		c.Cycles += c.TLBMissPenalty
	}
	if !c.L1D.Access(addr) {
		c.Cycles += c.L1MissPenalty
		if !c.L2.Access(addr) {
			c.Cycles += c.L2MissPenalty
		}
	}
}

// Branch executes one branch instruction.
func (c *Core) Branch(pc uint64, taken bool) {
	c.Instructions++
	c.Cycles += 1 / c.BaseIPC
	if !c.BP.Predict(pc, taken) {
		c.Cycles += c.BPMissPenalty
	}
}

// ALU executes n plain arithmetic instructions.
func (c *Core) ALU(n int) {
	c.Instructions += uint64(n)
	c.Cycles += float64(n) / c.BaseIPC
}

// IPC returns retired instructions per cycle.
func (c *Core) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / c.Cycles
}

// Metrics is the Figure 15 measurement set for one workload configuration.
type Metrics struct {
	IPC            float64
	LLCMissRate    float64
	BranchMissRate float64
	TLBMisses      uint64
	TLBMissRate    float64
	Instructions   uint64
}

// snapshot extracts the counters attributable to a window of execution by
// differencing.
type counters struct {
	instr, cycles                    float64
	llcA, llcM, brA, brM, tlbA, tlbM uint64
}

func (c *Core) counters() counters {
	return counters{
		instr: float64(c.Instructions), cycles: c.Cycles,
		llcA: c.L2.Accesses, llcM: c.L2.Misses,
		brA: c.BP.Branches, brM: c.BP.Misses,
		tlbA: c.TLB.Accesses, tlbM: c.TLB.Misses,
	}
}

func diffMetrics(a, b counters) Metrics {
	m := Metrics{Instructions: uint64(b.instr - a.instr)}
	if cy := b.cycles - a.cycles; cy > 0 {
		m.IPC = (b.instr - a.instr) / cy
	}
	if d := b.llcA - a.llcA; d > 0 {
		m.LLCMissRate = float64(b.llcM-a.llcM) / float64(d)
	}
	if d := b.brA - a.brA; d > 0 {
		m.BranchMissRate = float64(b.brM-a.brM) / float64(d)
	}
	m.TLBMisses = b.tlbM - a.tlbM
	if d := b.tlbA - a.tlbA; d > 0 {
		m.TLBMissRate = float64(b.tlbM-a.tlbM) / float64(d)
	}
	return m
}

// Workload generates instruction activity on a core. Burst runs roughly n
// "iterations" of the workload's inner loop.
type Workload interface {
	Name() string
	Burst(c *Core, iters int)
}

// AutopilotWorkload models the inner-loop control computation (§2.1.3-D):
// a small resident state (EKF matrices, PID history, sensor rings) walked
// with regular strides and loop-dominated, highly predictable branches,
// plus occasional excursions into a wider seldom-hot region (parameter
// tables, logging, the network stack) that populate the TLB the way a real
// Linux process does.
type AutopilotWorkload struct {
	rng *rand.Rand
	// FootprintBytes is the hot control state (~128 KiB).
	FootprintBytes uint64
	// MiscBytes is the cold wide region; MiscEvery gates how often an
	// iteration touches it.
	MiscBytes uint64
	MiscEvery int
	base      uint64
	pos       uint64
	iter      int
}

// NewAutopilotWorkload builds the control-loop workload.
func NewAutopilotWorkload(seed int64) *AutopilotWorkload {
	return &AutopilotWorkload{
		rng:            rand.New(mathx.NewSource(seed)),
		FootprintBytes: 128 * 1024,
		MiscBytes:      1 << 20,
		MiscEvery:      4,
		base:           0x1000_0000,
	}
}

// Name implements Workload.
func (w *AutopilotWorkload) Name() string { return "autopilot" }

// Burst implements Workload: each iteration is one control-loop tick — a
// strided pass over the filter state with loop branches.
func (w *AutopilotWorkload) Burst(c *Core, iters int) {
	for i := 0; i < iters; i++ {
		w.iter++
		// EKF/PID pass: sequential walk over a slice of the state.
		for j := 0; j < 24; j++ {
			c.Load(w.base + w.pos%w.FootprintBytes)
			w.pos += 128 // strided matrix rows: two lines apart
			c.ALU(10)
			// loop branch: taken except at the end (predictable).
			c.Branch(w.base+uint64(j%6), j%6 != 5)
		}
		if w.MiscEvery > 0 && w.iter%w.MiscEvery == 0 {
			c.Load(w.base + 0x4000_0000 + uint64(w.rng.Int63n(int64(w.MiscBytes))))
		}
		// Occasional mode/guard branch, mildly data-dependent.
		c.Branch(w.base+0x777, w.rng.Intn(10) < 8)
	}
}

// SLAMWorkload models the ORB-SLAM memory behavior: a multi-megabyte map
// touched irregularly (pointer-chasing through keyframes and landmarks)
// with a hot recently-used subset, streaming image reads, and a mix of loop
// branches and data-dependent compares (descriptor distances, ratio tests).
type SLAMWorkload struct {
	rng *rand.Rand
	// MapBytes is the full map footprint; HotBytes the recently-touched
	// subset that sees half the accesses.
	MapBytes uint64
	HotBytes uint64
	base     uint64
	img      uint64
}

// NewSLAMWorkload builds the SLAM workload.
func NewSLAMWorkload(seed int64) *SLAMWorkload {
	return &SLAMWorkload{
		rng:      rand.New(mathx.NewSource(seed)),
		MapBytes: 24 << 20,
		HotBytes: 192 * 1024,
		base:     0x5000_0000,
	}
}

// Name implements Workload.
func (w *SLAMWorkload) Name() string { return "SLAM" }

// Burst implements Workload.
func (w *SLAMWorkload) Burst(c *Core, iters int) {
	const imgBytes = 376 * 240
	for i := 0; i < iters; i++ {
		// Pointer-chase map entries (BA sparse structure); half the
		// touches revisit the hot working set.
		for j := 0; j < 12; j++ {
			region := w.MapBytes
			if j%2 == 0 {
				region = w.HotBytes
			}
			c.Load(w.base + uint64(w.rng.Int63n(int64(region))))
			c.ALU(14)
			if j%3 == 0 {
				// Data-dependent compare (descriptor distance).
				c.Branch(w.base+uint64(j)*4, w.rng.Intn(10) < 6)
			} else {
				// Inner-loop branch, predictable.
				c.Branch(w.base+0x888+uint64(j)*4, j%4 != 3)
			}
		}
		// Stream a stretch of the image (feature extraction).
		for j := 0; j < 6; j++ {
			c.Load(w.base + w.MapBytes + w.img%imgBytes)
			w.img += 64
			c.ALU(6)
			c.Branch(w.base+0x999, j != 5)
		}
	}
}

// RunSolo executes a workload alone on a fresh core and reports its
// metrics.
func RunSolo(w Workload, iters int) Metrics {
	c := NewCore()
	before := c.counters()
	w.Burst(c, iters)
	return diffMetrics(before, c.counters())
}

// RunCoResident interleaves the primary and secondary workloads on one core
// the way Linux schedules the autopilot and SLAM on the same Pi: the
// periodic autopilot runs briefly (quantum iterations), then SLAM consumes
// the rest of the tick (secondaryScale x quantum iterations). It reports
// the PRIMARY workload's metrics only — the Figure 15 "autopilot w/ SLAM"
// bars.
func RunCoResident(primary, secondary Workload, totalIters, quantum, secondaryScale int) Metrics {
	c := NewCore()
	return interleave(c, c, primary, secondary, totalIters, quantum, secondaryScale)
}

// interleave runs quantum-iteration bursts of primary on core p, each
// followed by a secondaryScale x quantum burst of secondary on core s, until
// primary has run totalIters iterations, and reports the metrics of the
// primary bursts alone. p and s may be the same core.
func interleave(p, s *Core, primary, secondary Workload, totalIters, quantum, secondaryScale int) Metrics {
	var instr uint64
	var cyc float64
	var llcA, llcM, brA, brM, tlbA, tlbM uint64
	done := 0
	for done < totalIters {
		n := quantum
		if done+n > totalIters {
			n = totalIters - done
		}
		before := p.counters()
		primary.Burst(p, n)
		after := p.counters()
		instr += uint64(after.instr - before.instr)
		cyc += after.cycles - before.cycles
		llcA += after.llcA - before.llcA
		llcM += after.llcM - before.llcM
		brA += after.brA - before.brA
		brM += after.brM - before.brM
		tlbA += after.tlbA - before.tlbA
		tlbM += after.tlbM - before.tlbM
		done += n
		secondary.Burst(s, quantum*secondaryScale)
	}
	m := Metrics{Instructions: instr, TLBMisses: tlbM}
	if cyc > 0 {
		m.IPC = float64(instr) / cyc
	}
	if llcA > 0 {
		m.LLCMissRate = float64(llcM) / float64(llcA)
	}
	if brA > 0 {
		m.BranchMissRate = float64(brM) / float64(brA)
	}
	if tlbA > 0 {
		m.TLBMissRate = float64(tlbM) / float64(tlbA)
	}
	return m
}

// Figure15Result holds the three Figure 15 configurations (autopilot
// alone, SLAM alone, and the autopilot co-resident with SLAM) and the one
// more that the §2.2 isolation ladder adds: the autopilot on a dedicated
// core that shares only the LLC with SLAM. The ladder's other two rungs are
// Figure 15's: the dedicated unit is Autopilot, the shared core is
// AutopilotWithSLAM.
type Figure15Result struct {
	Autopilot         Metrics
	SLAM              Metrics
	AutopilotWithSLAM Metrics
	DedicatedCore     Metrics
}

// RunFigure15 executes the experiment at a representative scale. The four
// workload configurations simulate on independent core models with
// independent RNG streams, so they run concurrently on the parallelx pool
// with results identical to back-to-back serial runs.
func RunFigure15(seed int64, iters int) Figure15Result {
	var out Figure15Result
	parallelx.Do(
		func() { out.Autopilot = RunSolo(NewAutopilotWorkload(seed), iters) },
		func() { out.SLAM = RunSolo(NewSLAMWorkload(seed+1), iters) },
		func() {
			out.AutopilotWithSLAM = RunCoResident(
				NewAutopilotWorkload(seed), NewSLAMWorkload(seed+1), iters, 40, 8)
		},
		func() {
			out.DedicatedCore = RunDedicatedCores(
				NewAutopilotWorkload(seed), NewSLAMWorkload(seed+1), iters, 40, 8)
		},
	)
	return out
}
