package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Parent 0 marks a root; Job is the fleet job the
// call served (0 when none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    uint64 `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and tags it with the job it served (0 for none).
func (t *tracer) end(id int, job uint64) {
	if t == nil || id == 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	if job != 0 {
		t.spans[id-1].Job = job
	}
}

// add records an already-timed root span.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: t.at(start), End: t.at(end)})
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed by span ID - 1.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// checkSpans reports the first way the span set is malformed: an unknown
// parent, an end before a start, or a child outside its parent's interval.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) lies outside parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	for i, v := range selfTimes(spans) {
		if v < 0 {
			return fmt.Errorf("span %d (%s) has self time %d ns", i+1, spans[i].Name, v)
		}
	}
	return nil
}

// shares returns, per span name, the summed self time of the spans so
// named divided by the summed duration of the root spans named root (the
// traced requests). weight scales names whose spans timed only a sample of
// the items.
func shares(spans []span, root string, weight map[string]float64) map[string]float64 {
	var total float64
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 {
			total += float64(s.End - s.Start)
		}
	}
	out := make(map[string]float64)
	if total == 0 {
		return out
	}
	for i, v := range selfTimes(spans) {
		name := spans[i].Name
		w, ok := weight[name]
		if !ok {
			w = 1
		}
		out[name+".share"] += w * float64(v) / total
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
