package faultx

import (
	"bytes"
	"math"
	"testing"

	"dronedse/mathx"
	"dronedse/power"
	"dronedse/sensors"
	"dronedse/sim"
)

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Events: []Event{{Kind: SensorDropout, Sensor: "sonar"}}},
		{Events: []Event{{Kind: SensorDropout, Sensor: sensors.SensorGPS, Prob: 1.5}}},
		{Events: []Event{{Kind: MotorDerate, Motor: 9, Frac: 0.5}}},
		{Events: []Event{{Kind: MotorDerate, Motor: 0, Frac: 1.5}}},
		{Events: []Event{{Kind: BatterySag, Frac: 0.99}}},
		{Events: []Event{{Kind: LinkDegrade, Frac: -0.1}}},
		{Events: []Event{{Kind: WindGust, Start: -1}}},
		{Events: []Event{{Kind: Kind(42)}}},
		{Events: []Event{{Kind: MotorDerate, Motor: 0, Frac: math.NaN()}}},
		{Events: []Event{{Kind: SensorDropout, Sensor: sensors.SensorGPS, Prob: math.NaN()}}},
		{Events: []Event{{Kind: BatterySag, Mag: math.NaN(), Frac: 0.3}}},
		{Events: []Event{{Kind: LinkDegrade, Frac: math.NaN()}}},
		{Events: []Event{{Kind: GPSDenial, Start: math.NaN()}}},
		{Events: []Event{{Kind: GPSDenial, Start: math.Inf(1)}}},
		{Events: []Event{{Kind: LinkOutage, Duration: math.NaN()}}},
		{Events: []Event{{Kind: LinkOutage, Duration: math.Inf(1)}}},
		{Events: []Event{{Kind: WindGust, Vec: mathx.V3(0, math.Inf(-1), 0)}}},
		{Events: []Event{{Kind: SensorBias, Sensor: sensors.SensorBaro, Mag: math.NaN()}}},
		{Events: []Event{{Kind: SensorBias, Sensor: sensors.SensorIMU, Vec: mathx.V3(0, 0, math.NaN())}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
	if err := severeScenario(1).Plan.Validate(); err != nil {
		t.Errorf("severe plan rejected: %v", err)
	}
}

func TestEventWindows(t *testing.T) {
	in, err := NewInjector(Plan{Events: []Event{
		{Kind: GPSDenial, Start: 10, Duration: 5},
		{Kind: LinkOutage, Start: 20}, // permanent
		{Kind: LinkDegrade, Start: 2, Duration: 4, Frac: 0.3},
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.GPSDenied(9.9) || !in.GPSDenied(10) || !in.GPSDenied(14.9) || in.GPSDenied(15) {
		t.Error("GPS denial window wrong")
	}
	if !in.LinkUp(19.9) || in.LinkUp(20) || in.LinkUp(1e6) {
		t.Error("permanent link outage wrong")
	}
	if s := in.BandwidthScale(3); s != 0.3 {
		t.Errorf("degraded scale = %v", s)
	}
	if s := in.BandwidthScale(7); s != 1 {
		t.Errorf("healed scale = %v", s)
	}
	// Denied GPS must also read as a sensor dropout.
	if !in.SensorFault(sensors.SensorGPS, 12).Dropout {
		t.Error("GPS denial did not drop GPS samples")
	}
	if in.SensorFault(sensors.SensorIMU, 12) != (sensors.FaultState{}) {
		t.Error("GPS denial leaked onto the IMU")
	}
}

func TestSensorFaultComposition(t *testing.T) {
	in, err := NewInjector(Plan{Events: []Event{
		{Kind: SensorBias, Sensor: sensors.SensorBaro, Start: 0, Mag: 2},
		{Kind: SensorBias, Sensor: sensors.SensorBaro, Start: 0, Vec: mathx.V3(1, 0, 0)},
		{Kind: SensorStuck, Sensor: sensors.SensorMag, Start: 5, Duration: 1},
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := in.SensorFault(sensors.SensorBaro, 1)
	if f.Bias.X != 3 {
		t.Errorf("biases did not add: %v", f.Bias)
	}
	if !in.SensorFault(sensors.SensorMag, 5.5).Stuck || in.SensorFault(sensors.SensorMag, 6.5).Stuck {
		t.Error("stuck window wrong")
	}
}

func TestStochasticDropoutDeterministic(t *testing.T) {
	sample := func(seed int64) []bool {
		in, _ := NewInjector(Plan{Events: []Event{
			{Kind: SensorDropout, Sensor: sensors.SensorGPS, Start: 0, Prob: 0.5},
		}}, seed)
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, in.SensorFault(sensors.SensorGPS, float64(i)).Dropout)
		}
		return out
	}
	a, b := sample(3), sample(3)
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different dropout sequences")
		}
		if a[i] {
			drops++
		}
	}
	if drops < 60 || drops > 140 {
		t.Errorf("p=0.5 dropped %d/200 samples", drops)
	}
	c := sample(4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical dropout sequences")
	}
}

func TestApplyDrivesAndHeals(t *testing.T) {
	q, err := sim.NewQuad(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pack := new(power.Pack)
	pack.Init(3, 3000, 30)
	env := sim.WindyEnvironment(1, 0, 0)
	q.SetEnvironment(env)
	in, err := NewInjector(Plan{Events: []Event{
		{Kind: MotorDerate, Start: 1, Duration: 2, Motor: 2, Frac: 0.6},
		{Kind: BatterySag, Start: 1, Duration: 2, Mag: 0.5, Frac: 0.2},
		{Kind: WindGust, Start: 1, Duration: 2, Vec: mathx.V3(3, 0, 0)},
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.Bind(q, pack, env)

	vNominal := pack.Voltage()
	in.Apply(0.5)
	if q.MotorEfficiency(2) != 1 || pack.Voltage() != vNominal || env.GustOffset != (mathx.Vec3{}) {
		t.Fatal("faults active before their window")
	}
	in.Apply(1.5)
	if got := q.MotorEfficiency(2); got != 0.6 {
		t.Errorf("motor efficiency = %v, want 0.6", got)
	}
	if got := pack.Voltage(); got >= vNominal-0.4 {
		t.Errorf("voltage %v did not sag from %v", got, vNominal)
	}
	if env.GustOffset != mathx.V3(3, 0, 0) {
		t.Errorf("gust offset = %v", env.GustOffset)
	}
	in.Apply(3.5) // windows over: everything heals
	if q.MotorEfficiency(2) != 1 || pack.Voltage() != vNominal || env.GustOffset != (mathx.Vec3{}) {
		t.Error("faults did not heal after their window")
	}
}

func TestLossyLinkTransparent(t *testing.T) {
	l := NewLossyLink(1)
	var got []byte
	for i := 0; i < 50; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 10)
		got = append(got, l.Transmit(chunk)...)
	}
	got = append(got, l.Flush()...)
	if len(got) != 500 {
		t.Fatalf("clean link delivered %d of 500 bytes", len(got))
	}
	for i := 0; i < 50; i++ {
		for j := 0; j < 10; j++ {
			if got[i*10+j] != byte(i) {
				t.Fatalf("clean link altered byte %d", i*10+j)
			}
		}
	}
	if l.Stats.Dropped+l.Stats.Corrupted+l.Stats.Duplicated+l.Stats.Truncated+l.Stats.Reordered != 0 {
		t.Errorf("clean link recorded damage: %+v", l.Stats)
	}
	if l.Stats.BytesIn != 500 || l.Stats.BytesOut != 500 {
		t.Errorf("byte accounting: %+v", l.Stats)
	}
}

func TestLossyLinkDeterministicDamage(t *testing.T) {
	run := func() ([]byte, LinkStats) {
		l := NewLossyLink(7)
		l.DropProb, l.CorruptProb, l.DupProb, l.TruncProb, l.ReorderProb = 0.2, 0.2, 0.2, 0.2, 0.2
		var got []byte
		for i := 0; i < 200; i++ {
			got = append(got, l.Transmit([]byte{byte(i), byte(i >> 1), byte(i >> 2), 0xAA})...)
		}
		got = append(got, l.Flush()...)
		return got, l.Stats
	}
	g1, s1 := run()
	g2, s2 := run()
	if !bytes.Equal(g1, g2) || s1 != s2 {
		t.Fatal("same seed produced different damage")
	}
	if s1.Dropped == 0 || s1.Corrupted == 0 || s1.Duplicated == 0 || s1.Truncated == 0 || s1.Reordered == 0 {
		t.Errorf("aggressive link left some fault kind unexercised: %+v", s1)
	}
	if s1.BytesIn != 800 {
		t.Errorf("BytesIn = %d, want 800", s1.BytesIn)
	}
}
