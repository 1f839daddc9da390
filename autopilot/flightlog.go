package autopilot

import (
	"fmt"
	"io"
	"strings"

	"dronedse/parallelx"
)

// FlightLog is a DataFlash-style structured flight recorder: periodic
// snapshots of the vehicle state, queryable after the flight and exportable
// as CSV — the logging layer every ArduCopter deployment (including the
// paper's artifact) relies on for post-flight analysis.
type FlightLog struct {
	// PeriodS is the sample interval (default 0.1 s).
	PeriodS float64

	entries parallelx.Recording[LogEntry]
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

// Reset empties the log for reuse by another flight and returns its rows'
// chunks to the shared free list, keeping the event capacity: a reset log
// records exactly as a new FlightLog would. Rows and events read before the
// Reset are overwritten by later recording.
func (l *FlightLog) Reset() {
	l.entries.Release()
	clear(l.events) // drop the old annotation strings
	*l = FlightLog{entries: l.entries, events: l.events[:0]}
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
		l.entries.Append(e)
	})
}

// Entries returns the recorded rows, read-only and in time order.
func (l *FlightLog) Entries() *parallelx.Series[LogEntry] { return &l.entries.Series }

// Events returns the recorded annotations.
func (l *FlightLog) Events() []LogEvent { return l.events }

// MaxAltitude returns the highest recorded altitude.
func (l *FlightLog) MaxAltitude() float64 { return l.peak(func(e LogEntry) float64 { return e.Alt }) }

// MaxSpeed returns the highest recorded speed.
func (l *FlightLog) MaxSpeed() float64 { return l.peak(func(e LogEntry) float64 { return e.Speed }) }

// peak returns the largest positive f over the rows (0 when none is).
func (l *FlightLog) peak(f func(LogEntry) float64) float64 {
	m := 0.0
	for _, e := range l.entries.All() {
		if v := f(e); v > m {
			m = v
		}
	}
	return m
}

// EnergyWh integrates the recorded power into watt-hours.
func (l *FlightLog) EnergyWh() float64 {
	wh := 0.0
	for i := 1; i < l.entries.Len(); i++ {
		a, b := l.entries.At(i-1), l.entries.At(i)
		wh += (b.PowerW + a.PowerW) / 2 * (b.TimeS - a.TimeS) / 3600
	}
	return wh
}

// WriteCSV streams the log as CSV.
func (l *FlightLog) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w,
		"time_s,mode,x,y,alt,speed,roll,pitch,yaw,power_w,soc\n"); err != nil {
		return err
	}
	for _, e := range l.entries.All() {
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
	n := l.entries.Len()
	if n == 0 {
		return "flight log: empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight log: %.1f s, %d samples, %d events; ",
		l.entries.At(n-1).TimeS-l.entries.At(0).TimeS, n, len(l.events))
	fmt.Fprintf(&b, "max alt %.1f m, max speed %.1f m/s, energy %.2f Wh",
		l.MaxAltitude(), l.MaxSpeed(), l.EnergyWh())
	return b.String()
}
