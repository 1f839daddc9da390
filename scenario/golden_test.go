package scenario_test

// Golden-output regression tests: the digests in testdata/ pin the exact
// float behavior of the reference flight and the standard fault campaign,
// so an unintended physics or wiring change fails loudly. They were
// recorded on the pre-scenario call sites (cmd/flysim's hand-rolled stack)
// and verified unchanged by the batched engine and the perf work since
// (the induced-power Pow(T, 1.5) → T*sqrt(T) move shifts only the energy
// ledger by ulps — the trajectory is upstream of the electrical model).
// Regenerate deliberately with
//
//	GOLDEN_UPDATE=1 go test ./scenario/ -run Golden

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"dronedse/faultx"
	"dronedse/mathx"
	"dronedse/parallelx"
	"dronedse/scenario"
)

// updateGoldens rewrites testdata instead of comparing against it.
var updateGoldens = os.Getenv("GOLDEN_UPDATE") != ""

// trajDigest hashes a trajectory exactly as the golden generator did:
// sha256 over the little-endian IEEE-754 bits of X, Y, Z per sample.
func trajDigest(traj *parallelx.Series[mathx.Vec3]) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, p := range traj.All() {
		put(p.X)
		put(p.Y)
		put(p.Z)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readGolden parses a "key value" testdata file.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if ok {
			out[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFlysimGolden pins cmd/flysim's default flight (seed 1, box mission at
// 5 m, RPi+Navio2 autopilot draw): the zero-value Spec must reproduce the
// pre-refactor trajectory and flight time bit for bit.
func TestFlysimGolden(t *testing.T) {
	res, err := scenario.Run(scenario.Spec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("reference mission did not complete (%s)", res.LastEvent)
	}
	if updateGoldens {
		body := fmt.Sprintf("traj_sha256 %s\nsamples %d\nflight_time_s %v\n",
			trajDigest(res.Trajectory), res.Trajectory.Len(), res.FlightTimeS)
		if err := os.WriteFile("testdata/flysim_golden.txt", []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("rewrote testdata/flysim_golden.txt")
		return
	}
	want := readGolden(t, "testdata/flysim_golden.txt")
	if got := strconv.Itoa(res.Trajectory.Len()); got != want["samples"] {
		t.Errorf("trajectory samples = %s, golden %s", got, want["samples"])
	}
	if got := fmt.Sprintf("%v", res.FlightTimeS); got != want["flight_time_s"] {
		t.Errorf("flight time = %s, golden %s", got, want["flight_time_s"])
	}
	if got := trajDigest(res.Trajectory); got != want["traj_sha256"] {
		t.Errorf("trajectory digest = %s, golden %s", got, want["traj_sha256"])
	}
}

// TestFaultCampaignGolden pins the standard fault campaign: the rendered
// table must hash to the pre-refactor digest at pool sizes 1, 2 and 8 —
// the golden and pool-invariance properties in one assertion.
func TestFaultCampaignGolden(t *testing.T) {
	if updateGoldens {
		c, err := faultx.Run(faultx.StandardScenarios(1), faultx.Config{MaxSeconds: 240})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(c.Table()))
		body := fmt.Sprintf("table_sha256 %s\n", hex.EncodeToString(sum[:]))
		if err := os.WriteFile("testdata/faultcamp_golden.txt", []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/faultcamp_table.txt", []byte(c.Table()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("rewrote testdata/faultcamp_golden.txt and faultcamp_table.txt")
		return
	}
	want := readGolden(t, "testdata/faultcamp_golden.txt")["table_sha256"]

	for _, pool := range []int{1, 2, 8} {
		old := parallelx.SetPoolSize(pool)
		c, err := faultx.Run(faultx.StandardScenarios(1), faultx.Config{MaxSeconds: 240})
		parallelx.SetPoolSize(old)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(c.Table()))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("pool %d: campaign table digest = %s, golden %s\ntable:\n%s",
				pool, got, want, c.Table())
		}
	}
}
