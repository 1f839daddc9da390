package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"dronedse/parallelx"
	"dronedse/scenario"
)

// Digests are the determinism contract's fingerprints, taken at full
// float-bit fidelity over the three artifacts multi-tenancy must not
// perturb: the 10 Hz trajectory, the DataFlash-style flight log, and the
// Equation-7 energy/flight-time ledger.
type Digests struct {
	Trajectory string `json:"trajectory"`
	FlightLog  string `json:"flight_log"`
	Ledger     string `json:"ledger"`
}

// DigestResult fingerprints a flight outcome. Two results digest equal iff
// their trajectories, logs and ledgers are bit-identical. Each digest is
// the sha256 of the artifact's fields in order: floats as their
// little-endian IEEE-754 bits, flags as one byte, strings as their bytes.
func DigestResult(res *scenario.Result) Digests {
	w, ok := digestWriters.Get()
	if !ok {
		w = &digestWriter{h: sha256.New()}
	}

	for _, p := range res.Trajectory.All() {
		w.floats(p.X, p.Y, p.Z)
	}
	traj := w.sum()

	w.flag(res.TakeoffOK)
	w.flag(res.Completed)
	w.str(res.FinalMode.String())
	w.str(res.LastEvent)
	for _, e := range res.Log.Entries().All() {
		w.floats(e.TimeS, e.PosX, e.PosY, e.Alt, e.Speed,
			e.Roll, e.Pitch, e.Yaw, e.PowerW, e.BatterySoC)
		w.str(e.Mode.String())
	}
	for _, e := range res.Log.Events() {
		w.floats(e.TimeS)
		w.str(e.Text)
	}
	logDigest := w.sum()

	w.floats(res.FlightTimeS, res.EnergyWh, res.ComputeWh,
		res.MaxEstErrM, res.AvgPowerW(), res.AvgComputeW(), res.ComputeFlightCostMin())
	w.floats(float64(res.Fallbacks), float64(res.Recoveries))

	d := Digests{Trajectory: traj, FlightLog: logDigest, Ledger: w.sum()}
	digestWriters.Put(w)
	return d
}

// digestBufSize is the digest writer's staging buffer: a flight's fields
// reach sha256 in writes of this size rather than eight bytes at a time.
const digestBufSize = 2048

// digestWriter streams one digest's bytes into a sha256 state through a
// fixed buffer. sum ends the digest and resets the state for the next one,
// so a borrowed writer allocates only the hex strings it returns.
type digestWriter struct {
	h   hash.Hash
	n   int
	buf [digestBufSize]byte
	raw [sha256.Size]byte
	hex [2 * sha256.Size]byte
}

func (w *digestWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

func (w *digestWriter) floats(vs ...float64) {
	for _, v := range vs {
		if w.n+8 > len(w.buf) {
			w.flush()
		}
		binary.LittleEndian.PutUint64(w.buf[w.n:], math.Float64bits(v))
		w.n += 8
	}
}

func (w *digestWriter) flag(b bool) {
	if w.n == len(w.buf) {
		w.flush()
	}
	w.buf[w.n] = 0
	if b {
		w.buf[w.n] = 1
	}
	w.n++
}

func (w *digestWriter) str(s string) {
	for len(s) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		k := copy(w.buf[w.n:], s)
		w.n += k
		s = s[k:]
	}
}

// sum returns the hex digest of everything written since the last sum.
func (w *digestWriter) sum() string {
	w.flush()
	hex.Encode(w.hex[:], w.h.Sum(w.raw[:0]))
	w.h.Reset()
	return string(w.hex[:])
}

// digestWriters is the free list DigestResult borrows from (a
// parallelx.FreeList, so a collection never empties it). fleetd's engine
// digests one job at a time; the spares serve concurrent in-process
// callers, and a writer returned to a full list is let go. A writer goes
// back only after its last digest was summed, so its state is already
// reset.
var digestWriters = parallelx.NewFreeList[*digestWriter](4)
