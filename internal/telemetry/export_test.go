package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedTree builds the same small cross-layer span tree every time,
// on a deterministic clock, so exports of it are byte-stable.
func fixedTree() *Tracer {
	tr := New(Config{Clock: fixedClock()})
	camp := tr.Start(0, "campaign", LayerCampaign) // start 1
	camp.Annotate("members", "2")
	mem := tr.Start(camp.ID(), "member", LayerMember) // start 2
	mem.Annotate("member", "0")
	cch := tr.Start(mem.ID(), "plancache.run", LayerCache) // start 3
	cch.Annotate("outcome", "miss")
	drv := tr.Start(cch.ID(), "driver.run", LayerDriver) // start 4
	ph := tr.Start(drv.ID(), "coarse", LayerPhase)       // start 5
	ph.End()                                             // end 6
	drv.End()                                            // end 7
	cch.End()                                            // end 8
	mem.End()                                            // end 9
	camp.End()                                           // end 10
	return tr
}

func TestDumpRoundTrip(t *testing.T) {
	tr := fixedTree()
	d := tr.Dump()
	var buf bytes.Buffer
	if err := d.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("round trip mismatch:\nencoded %+v\ndecoded %+v", d, got)
	}
}

func TestDecodeDumpRejectsUnknownSchema(t *testing.T) {
	_, err := DecodeDump(strings.NewReader(`{"schema":"nestwrf/spans/v99","unit":"seconds","spans":[]}`))
	if err == nil || !strings.Contains(err.Error(), "unsupported span schema") {
		t.Fatalf("DecodeDump err = %v, want unsupported-schema error", err)
	}
	_, err = DecodeDump(strings.NewReader(`{not json`))
	if err == nil {
		t.Fatal("DecodeDump accepted malformed JSON")
	}
}

func TestChromeLogLaneOrder(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedTree().WriteChrome(&buf, "lanes"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var lanes []string
	for _, e := range doc.TraceEvents {
		switch {
		case e.Name == "thread_name":
			if e.Tid != len(lanes)+1 {
				t.Fatalf("lane %q has tid %d, want %d", e.Args["name"], e.Tid, len(lanes)+1)
			}
			lanes = append(lanes, e.Args["name"])
		case e.Ph == "X":
			// Attributes travel as args, plus the span/parent join keys.
			if e.Args["span"] == "" {
				t.Fatalf("span %s has no span arg: %v", e.Name, e.Args)
			}
			if e.Name != "campaign" && e.Args["parent"] == "" {
				t.Fatalf("non-root span %s has no parent arg: %v", e.Name, e.Args)
			}
		}
	}
	if !reflect.DeepEqual(lanes, []string{LayerCampaign, LayerMember, LayerCache, LayerDriver, LayerPhase}) {
		t.Fatalf("lanes = %v, want canonical outermost-first order", lanes)
	}
}

// FuzzDecodeDump: whatever DecodeDump accepts must render as a Gantt
// chart without panicking and export as valid Chrome JSON.
func FuzzDecodeDump(f *testing.F) {
	var seed bytes.Buffer
	if err := fixedTree().Dump().EncodeJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"schema":"nestwrf/spans/v1","unit":"virtual seconds","spans":[{"id":0,"name":"x","layer":"lane","start":-1,"end":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = d.Render(40)
		var buf bytes.Buffer
		if err := WriteChrome(&buf, Process{Name: "fuzz", Log: &d}); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("WriteChrome emitted invalid JSON: %s", buf.Bytes())
		}
	})
}

// TestChromeGolden pins the Chrome export of the fixed tree byte for
// byte. Regenerate with `go test ./internal/telemetry -run Golden -update`
// after a deliberate format change.
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedTree().WriteChrome(&buf, "golden"); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}
