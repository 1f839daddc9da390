package main

import (
	"strings"
	"testing"
)

// TestRunRejectsUnknownFigure checks that an id that selects no figure is an
// error naming the ids that exist, not an empty run.
func TestRunRejectsUnknownFigure(t *testing.T) {
	err := run("nope", 1, 0, "")
	if err == nil {
		t.Fatal(`run("nope") returned nil`)
	}
	for _, id := range []string{`"nope"`, "all", "table2b", "15", "isolation", "table5"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not name %s", err, id)
		}
	}
}
