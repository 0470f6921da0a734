package telemetry

import (
	"strings"
	"testing"
)

func TestAddAndDuration(t *testing.T) {
	var l Dump
	l.Add("a", "lane1", 0, 1)
	l.Add("b", "lane2", 0.5, 2)
	l.Add("dropped", "lane1", 3, 3)  // zero length
	l.Add("dropped2", "lane1", 5, 4) // negative length
	if len(l.Spans) != 2 {
		t.Fatalf("spans = %d", len(l.Spans))
	}
	if l.Duration() != 2 {
		t.Errorf("Duration = %v", l.Duration())
	}
}

func TestAddOnNil(t *testing.T) {
	var l *Dump
	l.Add("x", "y", 0, 1) // must not panic
}

// Every query method must be nil-receiver safe, like Add.
func TestNilReceiverQueries(t *testing.T) {
	var l *Dump
	if d := l.Duration(); d != 0 {
		t.Errorf("nil Duration = %v", d)
	}
	if lanes := l.Lanes(); lanes != nil {
		t.Errorf("nil Lanes = %v", lanes)
	}
	if out := l.Render(40); !strings.Contains(out, "empty") {
		t.Errorf("nil Render = %q", out)
	}
}

func TestLanesOrder(t *testing.T) {
	var l Dump
	l.Add("a", "z-lane", 0, 1)
	l.Add("b", "a-lane", 0, 1)
	l.Add("c", "z-lane", 1, 2)
	lanes := l.Lanes()
	if len(lanes) != 2 || lanes[0] != "z-lane" || lanes[1] != "a-lane" {
		t.Errorf("lanes = %v (want first-appearance order)", lanes)
	}
}

func TestRender(t *testing.T) {
	var l Dump
	l.Add("parent", "all ranks", 0, 1)
	l.Add("nest1", "part1", 1, 3)
	l.Add("nest2", "part2", 1, 2.5)
	out := l.Render(60)
	if !strings.Contains(out, "all ranks") || !strings.Contains(out, "part1") {
		t.Errorf("missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "parent") || !strings.Contains(out, "nest1") {
		t.Errorf("missing labels:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 lanes
		t.Errorf("rendered %d lines:\n%s", len(lines), out)
	}
	// Parallel lanes start at the same column: nest bars begin after the
	// parent bar (1/3 of the width).
	if strings.Index(lines[2], "nest1") <= strings.Index(lines[1], "parent") {
		t.Errorf("nest1 should start after parent begins:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	var l Dump
	if got := l.Render(40); !strings.Contains(got, "empty") {
		t.Errorf("empty render = %q", got)
	}
}

func TestRenderNarrowWidthClamped(t *testing.T) {
	var l Dump
	l.Add("x", "lane", 0, 1)
	out := l.Render(1)
	if len(out) == 0 {
		t.Error("narrow render empty")
	}
}

// A duration string wider than the plot used to drive the header pad
// negative and panic strings.Repeat.
func TestRenderHugeDurationHeader(t *testing.T) {
	var l Dump
	l.Add("x", "lane", 0, 1e15)
	out := l.Render(20)
	if !strings.Contains(out, "lane") {
		t.Errorf("render = %q", out)
	}
}

// A span starting before zero used to index the row at a negative
// column; its bar is clipped to the plot's left edge instead.
func TestRenderNegativeStartClipped(t *testing.T) {
	var l Dump
	l.Add("x", "lane", -1, 1)
	out := l.Render(40)
	want := "lane |x" + strings.Repeat("#", 39) + "|\n"
	if !strings.HasSuffix(out, want) {
		t.Errorf("render = %q, want a row ending %q", out, want)
	}
}
