// Telemetry fan-out: one drone's MAVLink stream delivered to many ground
// stations at once. A Hub sits between the telemetry source (the scenario
// probe's Send callback, running inside the flight tick loop) and any number
// of subscribers, each with its own bounded frame queue. Publish never
// blocks: a laggard subscriber sheds its oldest queued units instead of
// stalling the simulation — the backpressure policy the fleetd tick loop
// depends on.
package groundstation

import (
	"bytes"
	"io"
	"sync"
)

// DefaultSubQueue is the per-subscriber queue depth (in telemetry units,
// not bytes) when Subscribe is given a non-positive capacity.
const DefaultSubQueue = 256

// minRing is the ring a subscriber's first unit allocates. The ring doubles
// from here only while its backlog fills it, so a reader that keeps up
// never holds more than this many slots, whatever its queue depth.
const minRing = 8

// Hub fans one telemetry stream out to subscribers. All methods are safe
// for concurrent use; Publish is wait-free with respect to subscribers (it
// only ever takes short in-memory locks, never an I/O path).
type Hub struct {
	mu        sync.Mutex
	subs      map[*Sub]struct{}
	closed    bool
	published uint64
	dropped   uint64
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{subs: make(map[*Sub]struct{})} }

// Publish delivers one telemetry unit — one or more complete, contiguous
// MAVLink frames — to every subscriber. Units are enqueued and shed whole,
// so a subscriber's byte stream is always frame-aligned: losing a unit
// never tears or interleaves frames. Publish only borrows unit: the caller
// may reuse it once Publish returns, because the hub queues one private copy
// for its subscribers — and none at all while nobody is subscribed.
func (h *Hub) Publish(unit []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.published++
	if len(h.subs) == 0 {
		return
	}
	unit = bytes.Clone(unit)
	for s := range h.subs {
		h.dropped += s.push(unit)
	}
}

// Subscribe attaches a new subscriber with the given queue capacity in
// telemetry units (<=0 selects DefaultSubQueue). The capacity bounds the
// queue; its memory follows the backlog. Subscribing to a closed hub yields
// a subscription that is already drained: Next reports false.
func (h *Hub) Subscribe(queue int) *Sub {
	if queue <= 0 {
		queue = DefaultSubQueue
	}
	s := &Sub{depth: queue}
	s.cond.L = &s.mu
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		s.close()
		return s
	}
	h.subs[s] = struct{}{}
	return s
}

// Unsubscribe detaches s and closes it; pending frames are discarded for
// the subscriber but its drop/receive counters remain readable.
func (h *Hub) Unsubscribe(s *Sub) {
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
	s.close()
}

// Close ends the stream: subscribers drain whatever is already queued and
// then see Next report false. They stay attached, so Backlog keeps counting
// what they have still to drain until they do or unsubscribe. Counters stay
// readable after Close.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		s.close()
	}
}

// Stats reports units published, units shed across all subscribers (past
// and present), and the attached subscriber count (closed ones included
// until they unsubscribe).
func (h *Hub) Stats() (published, dropped uint64, subscribers int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.published, h.dropped, len(h.subs)
}

// Backlog returns the total queued-but-undelivered units across attached
// subscribers, closed ones included — the drain-aware close signal: a
// shutdown that wants subscribers to see every published unit waits for
// the backlog to flush (bounded) before force-closing their connections.
func (h *Hub) Backlog() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for s := range h.subs {
		n += s.Len()
	}
	return n
}

// Sub is one subscriber's bounded telemetry queue. Next blocks until a unit
// arrives or the subscription closes; push (hub-side) never blocks. The
// ring starts empty and grows with the backlog up to depth slots.
type Sub struct {
	mu      sync.Mutex
	cond    sync.Cond
	ring    [][]byte
	head, n int
	depth   int
	dropped uint64
	closed  bool
}

// push enqueues a unit and returns how many units were dropped (0 or 1). A
// full ring below depth doubles, keeping its units in order; at depth the
// oldest unit is shed.
func (s *Sub) push(unit []byte) (shed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	if s.n == len(s.ring) && s.n < s.depth {
		s.grow()
	}
	if s.n == len(s.ring) {
		s.ring[s.head] = nil
		s.head = (s.head + 1) % len(s.ring)
		s.n--
		s.dropped++
		shed = 1
	}
	s.ring[(s.head+s.n)%len(s.ring)] = unit
	s.n++
	s.cond.Signal()
	return shed
}

// grow moves the queued units, oldest first, into a ring twice the size
// (minRing at first), capped at depth.
func (s *Sub) grow() {
	ring := make([][]byte, min(max(2*len(s.ring), minRing), s.depth))
	k := copy(ring, s.ring[s.head:])
	copy(ring[k:], s.ring[:s.head])
	s.ring, s.head = ring, 0
}

// Next returns the oldest queued unit, blocking while the queue is empty.
// After the subscription closes it keeps returning queued units until the
// queue drains, then reports false.
func (s *Sub) Next() ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.n == 0 && !s.closed {
		s.cond.Wait()
	}
	return s.popLocked()
}

func (s *Sub) popLocked() ([]byte, bool) {
	if s.n == 0 {
		return nil, false
	}
	u := s.ring[s.head]
	s.ring[s.head] = nil
	s.head = (s.head + 1) % len(s.ring)
	s.n--
	return u, true
}

// Len returns how many units are queued awaiting delivery.
func (s *Sub) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func (s *Sub) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// StreamTo pumps a subscription into w until the subscription closes and
// drains (returns nil) or a write fails (returns the write error). It is
// the serving side of a telemetry TCP connection: a stalled w blocks only
// this call — the hub keeps publishing and this subscriber sheds.
func StreamTo(w io.Writer, sub *Sub) error {
	for {
		unit, ok := sub.Next()
		if !ok {
			return nil
		}
		if _, err := w.Write(unit); err != nil {
			return err
		}
	}
}
