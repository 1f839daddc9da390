package autopilot

import (
	"fmt"
	"io"
	"strings"
)

// FlightLog is a DataFlash-style structured flight recorder: periodic
// snapshots of the vehicle state, queryable after the flight and exportable
// as CSV — the logging layer every ArduCopter deployment (including the
// paper's artifact) relies on for post-flight analysis.
type FlightLog struct {
	// PeriodS is the sample interval (default 0.1 s).
	PeriodS float64

	entries []LogEntry
	next    float64
	primed  bool
	events  []LogEvent
}

// LogEntry is one sampled row.
type LogEntry struct {
	TimeS      float64
	Mode       Mode
	PosX, PosY float64
	Alt        float64
	Speed      float64
	Roll       float64
	Pitch      float64
	Yaw        float64
	PowerW     float64
	BatterySoC float64
}

// LogEvent is an asynchronous annotation (mode changes, safety events).
type LogEvent struct {
	TimeS float64
	Text  string
}

// Reserve grows the log's entry and event capacity so a flight of the given
// duration records without steady-state append reallocation. Entry capacity
// follows the sample period; events get a fixed allowance (mode changes and
// safety annotations are rare).
func (l *FlightLog) Reserve(durationS float64) {
	period := l.PeriodS
	if period <= 0 {
		period = 0.1
	}
	n := int(durationS/period) + 2
	if cap(l.entries) < n {
		entries := make([]LogEntry, len(l.entries), n)
		copy(entries, l.entries)
		l.entries = entries
	}
	const eventAllowance = 64
	if cap(l.events) < eventAllowance {
		events := make([]LogEvent, len(l.events), eventAllowance)
		copy(events, l.events)
		l.events = events
	}
}

// Reset empties the log for reuse by another flight, keeping the entry and
// event capacity: a reset log records exactly as a new FlightLog would.
// Slices returned by Entries and Events before the Reset are overwritten by
// later recording.
func (l *FlightLog) Reset() {
	clear(l.events) // drop the old annotation strings
	*l = FlightLog{entries: l.entries[:0], events: l.events[:0]}
}

// AttachFlightLog registers the recorder on the autopilot's step bus; it
// samples in registration order relative to any other observers.
func (a *Autopilot) AttachFlightLog(l *FlightLog) {
	if l.PeriodS <= 0 {
		l.PeriodS = 0.1
	}
	lastMode := a.Mode()
	lastEvent := a.LastEvent()
	a.Observe(func(ap *Autopilot, dt float64) {
		if m := ap.Mode(); m != lastMode {
			l.events = append(l.events, LogEvent{ap.Time(), "mode " + lastMode.String() + " -> " + m.String()})
			lastMode = m
		}
		if e := ap.LastEvent(); e != lastEvent && e != "" {
			l.events = append(l.events, LogEvent{ap.Time(), e})
			lastEvent = e
		}
		if !l.primed {
			l.next = ap.Time()
			l.primed = true
		}
		if ap.Time() < l.next {
			return
		}
		l.next += l.PeriodS
		s := ap.Quad().State()
		roll, pitch, yaw := s.Att.Euler()
		e := LogEntry{
			TimeS: ap.Time(), Mode: ap.Mode(),
			PosX: s.Pos.X, PosY: s.Pos.Y, Alt: s.Pos.Z,
			Speed: s.Vel.Norm(),
			Roll:  roll, Pitch: pitch, Yaw: yaw,
			PowerW: ap.TotalPowerW(),
		}
		if b := ap.Battery(); b != nil {
			e.BatterySoC = b.StateOfCharge()
		}
		l.entries = append(l.entries, e)
	})
}

// Entries returns the recorded rows.
func (l *FlightLog) Entries() []LogEntry { return l.entries }

// Events returns the recorded annotations.
func (l *FlightLog) Events() []LogEvent { return l.events }

// MaxAltitude returns the highest recorded altitude.
func (l *FlightLog) MaxAltitude() float64 {
	m := 0.0
	for _, e := range l.entries {
		if e.Alt > m {
			m = e.Alt
		}
	}
	return m
}

// MaxSpeed returns the highest recorded speed.
func (l *FlightLog) MaxSpeed() float64 {
	m := 0.0
	for _, e := range l.entries {
		if e.Speed > m {
			m = e.Speed
		}
	}
	return m
}

// EnergyWh integrates the recorded power into watt-hours.
func (l *FlightLog) EnergyWh() float64 {
	wh := 0.0
	for i := 1; i < len(l.entries); i++ {
		dt := l.entries[i].TimeS - l.entries[i-1].TimeS
		wh += (l.entries[i].PowerW + l.entries[i-1].PowerW) / 2 * dt / 3600
	}
	return wh
}

// TimeInMode sums the recorded seconds spent in a mode.
func (l *FlightLog) TimeInMode(m Mode) float64 {
	t := 0.0
	for i := 1; i < len(l.entries); i++ {
		if l.entries[i].Mode == m {
			t += l.entries[i].TimeS - l.entries[i-1].TimeS
		}
	}
	return t
}

// WriteCSV streams the log as CSV.
func (l *FlightLog) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w,
		"time_s,mode,x,y,alt,speed,roll,pitch,yaw,power_w,soc\n"); err != nil {
		return err
	}
	for _, e := range l.entries {
		_, err := fmt.Fprintf(w, "%.3f,%s,%.3f,%.3f,%.3f,%.3f,%.4f,%.4f,%.4f,%.2f,%.4f\n",
			e.TimeS, e.Mode, e.PosX, e.PosY, e.Alt, e.Speed,
			e.Roll, e.Pitch, e.Yaw, e.PowerW, e.BatterySoC)
		if err != nil {
			return err
		}
	}
	return nil
}

// Summary renders a one-paragraph post-flight report.
func (l *FlightLog) Summary() string {
	if len(l.entries) == 0 {
		return "flight log: empty"
	}
	var b strings.Builder
	first, last := l.entries[0], l.entries[len(l.entries)-1]
	fmt.Fprintf(&b, "flight log: %.1f s, %d samples, %d events; ",
		last.TimeS-first.TimeS, len(l.entries), len(l.events))
	fmt.Fprintf(&b, "max alt %.1f m, max speed %.1f m/s, energy %.2f Wh",
		l.MaxAltitude(), l.MaxSpeed(), l.EnergyWh())
	return b.String()
}
