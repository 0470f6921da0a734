// Package trace records the virtual-time phases of one simulated
// iteration (parent step, per-sibling nest phases, I/O) and renders
// them as a text Gantt chart, making the difference between the
// sequential and concurrent schedules visible at a glance.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Span is one timed phase on one lane (a processor group).
type Span struct {
	Name       string
	Lane       string
	Start, End float64 // virtual seconds within the iteration
	// Args, when non-nil, are carried into the Chrome export as the
	// event's args (key/value annotations visible in Perfetto). The
	// text renderers ignore them.
	Args map[string]string
}

// Log collects spans.
type Log struct {
	Spans []Span
}

// Add records a span; zero- or negative-length spans are dropped.
func (l *Log) Add(name, lane string, start, end float64) {
	if l == nil || end <= start {
		return
	}
	l.Spans = append(l.Spans, Span{Name: name, Lane: lane, Start: start, End: end})
}

// Duration returns the end of the latest span. A nil log has duration
// zero.
func (l *Log) Duration() float64 {
	if l == nil {
		return 0
	}
	var d float64
	for _, s := range l.Spans {
		if s.End > d {
			d = s.End
		}
	}
	return d
}

// Lanes returns the distinct lanes in first-appearance order. A nil
// log has no lanes.
func (l *Log) Lanes() []string {
	if l == nil {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	for _, s := range l.Spans {
		if !seen[s.Lane] {
			seen[s.Lane] = true
			out = append(out, s.Lane)
		}
	}
	return out
}

// Render draws the log as a text Gantt chart with the given plot width
// in characters. Each lane is one row; spans appear as labelled bars.
// A nil log renders as an empty trace.
func (l *Log) Render(width int) string {
	if l == nil || len(l.Spans) == 0 {
		return "(empty trace)\n"
	}
	if width < 20 {
		width = 20
	}
	total := l.Duration()
	if total <= 0 {
		return "(empty trace)\n"
	}
	lanes := l.Lanes()
	laneWidth := 0
	for _, ln := range lanes {
		if len(ln) > laneWidth {
			laneWidth = len(ln)
		}
	}
	scale := float64(width) / total

	var b strings.Builder
	// The pad squeezes to nothing when the duration string is wider
	// than the plot; strings.Repeat panics on a negative count.
	pad := width - len(fmt.Sprintf("%.3fs", total)) - 1
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(&b, "%*s  0%s%.3fs\n", laneWidth, "", strings.Repeat(" ", pad), total)
	for _, ln := range lanes {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		spans := make([]Span, 0)
		for _, s := range l.Spans {
			if s.Lane == ln {
				spans = append(spans, s)
			}
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for _, s := range spans {
			from := int(s.Start * scale)
			to := int(s.End * scale)
			if to <= from {
				to = from + 1
			}
			if to > width {
				to = width
			}
			label := s.Name
			for i := from; i < to; i++ {
				ch := byte('#')
				if li := i - from; li < len(label) {
					ch = label[li]
				}
				row[i] = ch
			}
		}
		fmt.Fprintf(&b, "%*s |%s|\n", laneWidth, ln, row)
	}
	return b.String()
}
