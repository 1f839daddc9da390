package main

import (
	"fmt"

	"dronedse/faultx"
	"dronedse/mission"
)

// faultKinds are the workload kinds every fault_campaign request flies.
var faultKinds = []string{"box", "coverage", "delivery", "follow"}

// faultSeeds is how many seeds one campaign replicates the standard
// scenario set over at scale 1 (8 scenarios per seed plus one fault-free
// baseline: 36 flights).
const faultSeeds = 4

// faultSession runs in-process faultx campaigns: every fault hook, lossy
// telemetry link and offload session active, and no HTTP, journal or hub.
type faultSession struct {
	cfg   config
	tr    *tracer
	seeds int
	maxS  float64

	simS                       float64
	flights, completed, rtl    int
	frames, dropped, fallbacks int
	goldens                    map[string]string
}

// setupFault flies one warm-up campaign on seeds no request uses.
func setupFault(cfg config, tr *tracer) (session, error) {
	s := &faultSession{
		cfg:     cfg,
		tr:      tr,
		seeds:   int(cfg.scaled(faultSeeds, 1)),
		maxS:    cfg.scaled(campaignSeconds, 1),
		goldens: map[string]string{},
	}
	if _, err := faultx.Run(s.scenarios(cfg.seedBase()-int64(s.seeds)), faultx.Config{MaxSeconds: s.maxS}); err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	return s, nil
}

func (s *faultSession) scenarios(first int64) []faultx.Scenario {
	var scs []faultx.Scenario
	for k := 0; k < s.seeds; k++ {
		scs = append(scs, faultx.StandardScenarios(first+int64(k))...)
	}
	return scs
}

// op is one round: a faultx.Run over the standard scenarios for the next
// s.seeds seeds for each kind in faultKinds. Every round flies the same
// mix, so request latencies are comparable.
func (s *faultSession) op(i, parent int) (int, error) {
	items := 0
	for k, kind := range faultKinds {
		wl, err := mission.Named(kind)
		if err != nil {
			return items, err
		}
		scs := s.scenarios(s.cfg.seedBase() + int64((i*len(faultKinds)+k)*s.seeds))
		items += len(scs) + s.seeds
		sp := s.tr.begin("faultx.run", parent)
		c, err := faultx.Run(scs, faultx.Config{MaxSeconds: s.maxS, Workload: wl})
		s.tr.end(sp, 0)
		if err != nil {
			return items, err
		}
		if len(c.Baselines) != s.seeds || len(c.Results) != len(scs) {
			return items, fmt.Errorf("round %d %s: %d baselines and %d rows for %d seeds and %d scenarios",
				i, kind, len(c.Baselines), len(c.Results), s.seeds, len(scs))
		}
		if i == 0 {
			table, err := c.JSON()
			if err != nil {
				return items, err
			}
			s.goldens["round[0] "+kind] = sha256Hex(table)
		}
		for _, r := range append(c.Baselines, c.Results...) {
			s.flights++
			s.simS += r.FlightTimeS
			switch r.Outcome {
			case faultx.OutcomeCompleted:
				s.completed++
			case faultx.OutcomeRTL:
				s.rtl++
			}
			s.frames += r.TelemetryFrames
			s.dropped += r.TelemetryDropped
			s.fallbacks += r.Fallbacks
		}
	}
	return items, nil
}

func (s *faultSession) finish() (outcome, error) {
	o := outcome{simS: s.simS, goldens: s.goldens, layers: map[string]float64{}}
	if n := float64(s.flights); n > 0 {
		o.layers["faultx.completed_frac"] = float64(s.completed) / n
		o.layers["faultx.rtl_frac"] = float64(s.rtl) / n
		o.layers["faultx.telemetry_frames_per_flight"] = float64(s.frames) / n
		o.layers["faultx.chunks_dropped_per_flight"] = float64(s.dropped) / n
		o.layers["faultx.fallbacks_per_flight"] = float64(s.fallbacks) / n
	}
	return o, nil
}

func (s *faultSession) close() {}
