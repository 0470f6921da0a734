package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// DumpSchema tags the JSON span dump. Bump the version suffix on any
// incompatible field change.
const DumpSchema = "nestwrf/spans/v1"

// Dump is the one span container: a tracer's finished spans, ordered by
// (start, id) so the encoding is deterministic for a given span set, or
// a virtual-time schedule built with Add. Span IDs in a tracer's dump
// join against slog lines that carry the same IDs.
type Dump struct {
	Schema string `json:"schema"`
	// Unit names the time base of Start/End: "seconds" since the
	// tracer epoch, or "virtual seconds" within a simulated iteration.
	Unit  string `json:"unit"`
	Spans []Span `json:"spans"`
	// Dropped counts spans discarded past the tracer's MaxSpans cap —
	// nonzero means the trace is a prefix, not the whole story.
	Dropped uint64 `json:"dropped,omitempty"`
}

// Dump snapshots the tracer's finished spans. A nil tracer yields an
// empty (but valid) dump.
func (t *Tracer) Dump() Dump {
	d := Dump{Schema: DumpSchema, Unit: "seconds", Spans: []Span{}}
	if t == nil {
		return d
	}
	t.mu.Lock()
	d.Spans = append(d.Spans, t.spans...)
	t.mu.Unlock()
	d.Dropped = t.dropped.Load()
	sort.SliceStable(d.Spans, func(i, j int) bool {
		if d.Spans[i].Start != d.Spans[j].Start {
			return d.Spans[i].Start < d.Spans[j].Start
		}
		return d.Spans[i].ID < d.Spans[j].ID
	})
	return d
}

// EncodeJSON writes the dump as indented JSON.
func (d Dump) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DecodeDump reads a JSON span dump, rejecting unknown schemas.
func DecodeDump(r io.Reader) (Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return d, fmt.Errorf("telemetry: decoding span dump: %w", err)
	}
	if d.Schema != DumpSchema {
		return d, fmt.Errorf("telemetry: unsupported span schema %q (want %s)", d.Schema, DumpSchema)
	}
	return d, nil
}

// Add records a span without an ID; zero- or negative-length spans are
// dropped. Safe on a nil receiver.
func (d *Dump) Add(name, layer string, start, end float64) {
	if d == nil || end <= start {
		return
	}
	d.Spans = append(d.Spans, Span{Name: name, Layer: layer, Start: start, End: end})
}

// Duration returns the end of the latest span. A nil dump has duration
// zero.
func (d *Dump) Duration() float64 {
	var total float64
	if d != nil {
		for _, s := range d.Spans {
			total = max(total, s.End)
		}
	}
	return total
}

// Lanes returns the distinct layers in first-appearance order. A nil
// dump has no lanes.
func (d *Dump) Lanes() []string {
	if d == nil {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	for _, s := range d.Spans {
		if !seen[s.Layer] {
			seen[s.Layer] = true
			out = append(out, s.Layer)
		}
	}
	return out
}

// Render draws the dump as a text Gantt chart with the given plot width
// in characters. Each layer is one row; spans appear as labelled bars,
// clipped to the plot. A nil dump renders as an empty trace.
func (d *Dump) Render(width int) string {
	total := d.Duration()
	if total <= 0 {
		return "(empty trace)\n"
	}
	width = max(width, 20)
	lanes := d.Lanes()
	laneWidth := 0
	for _, ln := range lanes {
		laneWidth = max(laneWidth, len(ln))
	}
	scale := float64(width) / total

	var b strings.Builder
	// The pad squeezes to nothing when the duration string is wider
	// than the plot; strings.Repeat panics on a negative count.
	pad := max(width-len(fmt.Sprintf("%.3fs", total))-1, 0)
	fmt.Fprintf(&b, "%*s  0%s%.3fs\n", laneWidth, "", strings.Repeat(" ", pad), total)
	for _, ln := range lanes {
		row := []byte(strings.Repeat(".", width))
		var spans []Span
		for _, s := range d.Spans {
			if s.Layer == ln {
				spans = append(spans, s)
			}
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for _, s := range spans {
			from := max(int(s.Start*scale), 0)
			to := min(max(int(s.End*scale), from+1), width)
			for i := from; i < to; i++ {
				ch := byte('#')
				if li := i - from; li < len(s.Name) {
					ch = s.Name[li]
				}
				row[i] = ch
			}
		}
		fmt.Fprintf(&b, "%*s |%s|\n", laneWidth, ln, row)
	}
	return b.String()
}

// Process names one span dump for Chrome export. Each process becomes a
// pid in the Chrome trace, so two schedules (e.g. sequential vs
// concurrent) can be compared side by side in one Perfetto view.
type Process struct {
	Name string
	Log  *Dump
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Field order is the serialized key order, which the golden tests pin.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Cat  string            `json:"cat,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome serializes the dumps in the Chrome trace-event JSON
// format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Seconds map to trace microseconds. Layers become threads in
// first-appearance order; spans become complete ("X") events sorted by
// start time, so the output is deterministic for a given input. An
// event's args are the span's attributes, plus span/parent join keys.
func WriteChrome(w io.Writer, procs ...Process) error {
	file := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for pi, p := range procs {
		pid := pi + 1
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("process %d", pid)
		}
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": name},
		})
		lanes := p.Log.Lanes()
		tids := make(map[string]int, len(lanes))
		for li, ln := range lanes {
			tids[ln] = li + 1
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: li + 1,
				Args: map[string]string{"name": ln},
			})
		}
		var spans []Span
		if p.Log != nil {
			spans = append(spans, p.Log.Spans...)
		}
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			if tids[spans[i].Layer] != tids[spans[j].Layer] {
				return tids[spans[i].Layer] < tids[spans[j].Layer]
			}
			return spans[i].Name < spans[j].Name
		})
		for _, s := range spans {
			dur := int64(math.Round((s.End - s.Start) * 1e6))
			if dur < 1 {
				dur = 1 // keep sub-microsecond spans visible
			}
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: s.Name, Ph: "X", Cat: "phase", Pid: pid, Tid: tids[s.Layer],
				Ts: int64(math.Round(s.Start * 1e6)), Dur: dur,
				Args: chromeArgs(s),
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}

// chromeArgs is one span's event args: nil for a span with neither
// attributes nor an ID.
func chromeArgs(s Span) map[string]string {
	if len(s.Attrs) == 0 && s.ID == 0 {
		return nil
	}
	args := make(map[string]string, len(s.Attrs)+2)
	for _, a := range s.Attrs {
		args[a.Key] = a.Value
	}
	if s.ID != 0 {
		args["span"] = s.ID.String()
	}
	if s.Parent != 0 {
		args["parent"] = s.Parent.String()
	}
	return args
}

// layerRank orders the Chrome lanes outermost layer first; layers not
// in the canonical list sort after, alphabetically.
var layerRank = map[string]int{
	LayerCampaign: 0,
	LayerMember:   1,
	LayerServe:    2,
	LayerCache:    3,
	LayerDriver:   4,
	LayerPhase:    5,
}

// WriteChrome writes the tracer's spans in the Chrome trace-event
// format as one process named name, with lanes in canonical layer
// order (campaign, member, planserve, cache, driver, phase) so every
// export reads the same top to bottom.
func (t *Tracer) WriteChrome(w io.Writer, name string) error {
	d := t.Dump()
	// Stable, so spans within a layer keep the dump's (start, id) order.
	sort.SliceStable(d.Spans, func(i, j int) bool {
		li, lj := d.Spans[i].Layer, d.Spans[j].Layer
		ri, iOK := layerRank[li]
		rj, jOK := layerRank[lj]
		if iOK != jOK {
			return iOK
		}
		if iOK {
			return ri < rj
		}
		return li < lj
	})
	return WriteChrome(w, Process{Name: name, Log: &d})
}

// WriteFiles writes the tracer's Chrome trace, as one process named
// name, to traceOut and its span dump to spansOut; an empty path is
// skipped. A nil tracer (tracing disabled) writes nothing.
func (t *Tracer) WriteFiles(name, traceOut, spansOut string) error {
	if t == nil {
		return nil
	}
	if err := writeFile("trace", traceOut, func(w io.Writer) error { return t.WriteChrome(w, name) }); err != nil {
		return err
	}
	return writeFile("spans", spansOut, func(w io.Writer) error { return t.Dump().EncodeJSON(w) })
}

// writeFile creates path and fills it with write; an empty path writes
// nothing.
func writeFile(what, path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s %s: %w", what, path, err)
	}
	return f.Close()
}
