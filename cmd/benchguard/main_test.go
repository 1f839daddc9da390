package main

import (
	"strings"
	"testing"
)

// TestGateAllocsAndOrder pins the two gates and the row order: a kernel
// with a zero-alloc baseline fails on any allocation even when it got
// faster, an allocating kernel may allocate more, ns/op fails beyond the
// tolerance, and rows print in sorted key order whatever the map order.
func TestGateAllocsAndOrder(t *testing.T) {
	base := map[string]Row{
		"a@pool1": {NsPerOp: 100, AllocsPerOp: 0},
		"b@pool1": {NsPerOp: 100, AllocsPerOp: 3},
		"c@pool1": {NsPerOp: 100, AllocsPerOp: 0},
		"d@pool1": {NsPerOp: 100, AllocsPerOp: 0},
	}
	fresh := map[string]Row{
		"d@pool1": {NsPerOp: 130, AllocsPerOp: 0}, // too slow
		"c@pool1": {NsPerOp: 90, AllocsPerOp: 0},  // ok
		"b@pool1": {NsPerOp: 90, AllocsPerOp: 9},  // ok: baseline allocates
		"a@pool1": {NsPerOp: 50, AllocsPerOp: 1},  // faster, but lost zero allocs
		"e@pool1": {NsPerOp: 10},                  // no baseline
	}
	var out strings.Builder
	failed, compared, skipped := gate(&out, base, fresh, 1.25)
	if failed != 2 || compared != 4 || skipped != 1 {
		t.Fatalf("failed/compared/skipped = %d/%d/%d, want 2/4/1\n%s", failed, compared, skipped, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []struct{ key, status string }{
		{"a@pool1", "FAIL (1 allocs/op, baseline 0)"},
		{"b@pool1", "ok"},
		{"c@pool1", "ok"},
		{"d@pool1", "FAIL"},
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w.key) || !strings.HasSuffix(lines[i], w.status) {
			t.Errorf("line %d = %q, want key %s and status %q", i, lines[i], w.key, w.status)
		}
	}
}
