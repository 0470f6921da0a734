package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func chromeFixture() (Dump, Dump) {
	var seq, con Dump
	seq.Add("parent", "all ranks", 0, 1)
	seq.Add("nest1", "all ranks", 1, 3)
	seq.Add("nest2", "all ranks", 3, 4.5)
	con.Add("parent", "all ranks", 0, 1)
	con.Add("nest1", "part1", 1, 2.5)
	con.Add("nest2", "part2", 1, 2.4)
	return seq, con
}

// TestWriteChromeGolden pins the exporter's exact bytes for a fixed
// two-process schedule: any schema or ordering drift fails the test.
func TestWriteChromeGolden(t *testing.T) {
	seq, con := chromeFixture()
	var buf bytes.Buffer
	err := WriteChrome(&buf,
		Process{Name: "sequential", Log: &seq},
		Process{Name: "concurrent", Log: &con},
	)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "schedule_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden:\n got: %s\nwant: %s", buf.Bytes(), want)
	}

	// Byte stability: a second write of the same input is identical.
	var again bytes.Buffer
	if err := WriteChrome(&again,
		Process{Name: "sequential", Log: &seq},
		Process{Name: "concurrent", Log: &con},
	); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two writes of the same trace differ")
	}
}

// TestWriteChromeWellFormed decodes the output as generic JSON and
// checks the trace-event invariants Perfetto relies on.
func TestWriteChromeWellFormed(t *testing.T) {
	seq, con := chromeFixture()
	var buf bytes.Buffer
	if err := WriteChrome(&buf,
		Process{Name: "sequential", Log: &seq},
		Process{Name: "concurrent", Log: &con},
	); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Ts   *float64          `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, complete int
	var lastTs = map[int]float64{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
			if e.Args["name"] == "" {
				t.Errorf("metadata event without name: %+v", e)
			}
		case "X":
			complete++
			if e.Name == "" || e.Pid < 1 || e.Tid < 1 || e.Ts == nil || e.Dur < 1 {
				t.Errorf("bad complete event: %+v", e)
			}
			if *e.Ts < lastTs[e.Pid] {
				t.Errorf("events not time-sorted within pid %d: %+v", e.Pid, e)
			}
			lastTs[e.Pid] = *e.Ts
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	// 2 process_name + 1+3 thread_name metadata, 3+3 spans.
	if meta != 6 || complete != 6 {
		t.Errorf("meta = %d, complete = %d, want 6 and 6", meta, complete)
	}
}

// TestWriteChromeEmpty keeps the exporter total on degenerate input.
func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, Process{Name: "empty", Log: nil}); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("traceEvents key missing")
	}
}
