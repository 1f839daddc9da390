// Lossy-link fuzz corpus: the parser fed through faultx.LossyLink, which
// mangles framed telemetry the way a marginal radio does. External test
// package because faultx (via the campaign's autopilot import) depends on
// mavlink.
package mavlink_test

import (
	"testing"
	"testing/quick"

	"dronedse/faultx"
	"dronedse/mavlink"
)

// heartbeatStream returns n marshaled heartbeat frames.
func heartbeatStream(t testing.TB, n int) [][]byte {
	var chunks [][]byte
	for i := 0; i < n; i++ {
		f := mavlink.Frame{Seq: uint8(i), MsgID: mavlink.MsgHeartbeat,
			Payload: mavlink.AppendHeartbeat(nil, mavlink.Heartbeat{Mode: uint8(i % 7), TimeMS: uint32(i)})}
		raw, err := f.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, raw)
	}
	return chunks
}

// runLossy pushes n frames through a link with the given probabilities and
// returns the parser plus the byte ledger.
func runLossy(t testing.TB, seed int64, n int, drop, corrupt, dup, trunc, reorder float64) (p mavlink.Parser, pushed, framed, decoded int) {
	link := faultx.NewLossyLink(seed)
	link.DropProb, link.CorruptProb = drop, corrupt
	link.DupProb, link.TruncProb, link.ReorderProb = dup, trunc, reorder
	push := func(b []byte) {
		pushed += len(b)
		for _, fr := range p.Push(b) {
			framed += 8 + len(fr.Payload)
			if fr.MsgID == mavlink.MsgHeartbeat {
				if _, err := mavlink.DecodeHeartbeat(fr.Payload); err == nil {
					decoded++
				}
			}
		}
	}
	for _, c := range heartbeatStream(t, n) {
		if out := link.Transmit(c); len(out) > 0 {
			push(out)
		}
	}
	if out := link.Flush(); len(out) > 0 {
		push(out)
	}
	return p, pushed, framed, decoded
}

// TestParserSurvivesLossyLink runs radio-damaged telemetry through the
// parser: no panics, every discarded byte accounted for, and the undamaged
// majority of frames still decodes.
func TestParserSurvivesLossyLink(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p, pushed, framed, decoded := runLossy(t, seed, 400, 0.15, 0.25, 0.1, 0.2, 0.1)
		if got := framed + p.Discarded + p.BufferedBytes(); got != pushed {
			t.Errorf("seed %d: byte ledger broken: framed %d + discarded %d + buffered %d != pushed %d",
				seed, framed, p.Discarded, p.BufferedBytes(), pushed)
		}
		if p.BadCRC == 0 {
			t.Errorf("seed %d: 25%% corruption produced no CRC failures", seed)
		}
		if decoded < 100 {
			t.Errorf("seed %d: only %d/400 heartbeats survived the link", seed, decoded)
		}
		if decoded > 400+p.Complete { // sanity: duplication can add, not invent
			t.Errorf("seed %d: decoded %d heartbeats from 400 sent", seed, decoded)
		}
	}
}

// TestParserLossyConservationQuick property-checks the byte-conservation
// invariant over arbitrary link seeds.
func TestParserLossyConservationQuick(t *testing.T) {
	f := func(seed int64) bool {
		p, pushed, framed, _ := runLossy(t, seed, 60, 0.2, 0.3, 0.15, 0.25, 0.15)
		return framed+p.Discarded+p.BufferedBytes() == pushed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestParserCleanLinkLossless: the zero-probability link must deliver every
// frame with zero discards — the transparency contract end to end.
func TestParserCleanLinkLossless(t *testing.T) {
	p, pushed, framed, decoded := runLossy(t, 1, 100, 0, 0, 0, 0, 0)
	if decoded != 100 || p.Complete != 100 {
		t.Errorf("clean link: decoded %d, complete %d, want 100", decoded, p.Complete)
	}
	if p.Discarded != 0 || p.BufferedBytes() != 0 || framed != pushed {
		t.Errorf("clean link leaked bytes: framed %d pushed %d discarded %d buffered %d",
			framed, pushed, p.Discarded, p.BufferedBytes())
	}
}
