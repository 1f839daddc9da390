package fleet_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"
	"sync"
	"testing"

	"dronedse/faultx"
	"dronedse/fleet"
	"dronedse/scenario"
)

// oracleDigest is DigestResult as it was first written: a fresh sha256
// state per digest, fed one value at a time. DigestResult must produce its
// digests exactly.
func oracleDigest(res *scenario.Result) fleet.Digests {
	putBits := func(h hash.Hash, vs ...float64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	traj := sha256.New()
	for _, p := range res.Trajectory.All() {
		putBits(traj, p.X, p.Y, p.Z)
	}

	logh := sha256.New()
	if res.TakeoffOK {
		logh.Write([]byte{1})
	} else {
		logh.Write([]byte{0})
	}
	if res.Completed {
		logh.Write([]byte{1})
	} else {
		logh.Write([]byte{0})
	}
	logh.Write([]byte(res.FinalMode.String()))
	logh.Write([]byte(res.LastEvent))
	for _, e := range res.Log.Entries().All() {
		putBits(logh, e.TimeS, e.PosX, e.PosY, e.Alt, e.Speed,
			e.Roll, e.Pitch, e.Yaw, e.PowerW, e.BatterySoC)
		logh.Write([]byte(e.Mode.String()))
	}
	for _, e := range res.Log.Events() {
		putBits(logh, e.TimeS)
		logh.Write([]byte(e.Text))
	}

	ledger := sha256.New()
	putBits(ledger, res.FlightTimeS, res.EnergyWh, res.ComputeWh,
		res.MaxEstErrM, res.AvgPowerW(), res.AvgComputeW(), res.ComputeFlightCostMin())
	putBits(ledger, float64(res.Fallbacks), float64(res.Recoveries))

	return fleet.Digests{
		Trajectory: hex.EncodeToString(traj.Sum(nil)),
		FlightLog:  hex.EncodeToString(logh.Sum(nil)),
		Ledger:     hex.EncodeToString(ledger.Sum(nil)),
	}
}

// faultedFlight flies the severe compound fault scenario, whose flight log
// carries failsafe and mode-change events.
func faultedFlight(t *testing.T) *scenario.Result {
	t.Helper()
	scs := faultx.StandardScenarios(31)
	sc := scs[len(scs)-1] // the severe compound fault
	inj, err := faultx.NewInjector(sc.Plan, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(scenario.Spec{Seed: sc.Seed, MaxSeconds: 30, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Log.Events()) == 0 {
		t.Fatal("the faulted flight logged no events")
	}
	return res
}

// TestDigestMatchesOracle pins DigestResult's byte stream: on a flight of
// every workload kind, and on a faulted flight whose event texts are
// stretched past the writer's staging buffer, it equals the per-value
// oracle.
func TestDigestMatchesOracle(t *testing.T) {
	check := func(name string, res *scenario.Result) {
		t.Helper()
		if got, want := fleet.DigestResult(res), oracleDigest(res); got != want {
			t.Fatalf("%s: digests %+v, oracle %+v", name, got, want)
		}
	}
	for _, j := range append(workloadJobs(), fleet.JobSpec{Seed: 200, MaxSeconds: 5}) {
		res, err := scenario.Run(j.Scenario())
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("seed %d", j.Seed), res)
	}

	res := faultedFlight(t)
	check("faulted", res)
	// Events() is the log's own slice: stretch its texts in place, to
	// lengths on both sides of every buffer boundary a few KiB can reach.
	events := res.Log.Events()
	for i := range events {
		events[i].Text += strings.Repeat("x", 2047+1500*i)
	}
	res.LastEvent = strings.Repeat("last event ", 1000)
	check("faulted, long texts", res)
}

// TestDigestConcurrent digests flights from several goroutines at once, so
// the race detector sees writers pass through the free list while in use.
func TestDigestConcurrent(t *testing.T) {
	var results []*scenario.Result
	var want []fleet.Digests
	for _, j := range workloadJobs()[:4] {
		res, err := scenario.Run(j.Scenario())
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		want = append(want, oracleDigest(res))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := (g + i) % len(results)
				if got := fleet.DigestResult(results[k]); got != want[k] {
					t.Errorf("goroutine %d: flight %d digests %+v, want %+v", g, k, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDigestAllocs pins the digest's heap cost: a warm DigestResult
// allocates only the three hex strings it returns.
func TestDigestAllocs(t *testing.T) {
	res := faultedFlight(t)
	fleet.DigestResult(res) // warm: stocks the writer free list
	const digests = 50
	if n := testing.AllocsPerRun(1, func() {
		for range digests {
			fleet.DigestResult(res)
		}
	}); n != 3*digests {
		t.Fatalf("%d warm DigestResults allocate %.0f objects, want %d", digests, n, 3*digests)
	}
}
