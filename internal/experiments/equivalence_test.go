package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/driver"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/model"
)

// renderAll runs every registered experiment sequentially, renders the
// tables the way cmd/experiments does for a successful -all run, and
// returns the SHA-256 of the concatenated tables, the quantity
// bench/golden/eval-all.json records.
func renderAll(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, o := range RunAll(1) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Experiment.ID, o.Err)
		}
		io.WriteString(h, o.Table.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFastPathOutputByteIdentical guards the whole evaluation against a
// model-result drift: the tables' SHA-256 must equal the committed
// testdata/runall.sha256 (the same value as bench/golden/eval-all.json,
// which the full-size benchmark checks). The hash was recorded with
// the phase-cost memo both on and off (the two renders were compared
// byte for byte until the off switch left the model package, whose
// memo_test.go still holds the memo to the uncached evaluation
// directly). Re-record the file only for an acknowledged change of the
// model's results.
func TestFastPathOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite is slow; skipped with -short")
	}
	golden, err := os.ReadFile("testdata/runall.sha256")
	if err != nil {
		t.Fatal(err)
	}
	model.ResetCache()
	driver.ResetPredictorCache()
	if sum, want := renderAll(t), strings.TrimSpace(string(golden)); sum != want {
		t.Errorf("RunAll tables hash to %s, testdata/runall.sha256 has %s", sum, want)
	}
}

// TestMappingHopMetricsUnchanged pins the mapping-level hop metrics of
// the 256-rank two-sibling split (sum of hops over pair count, maximum)
// to the values recorded before mapping.Analyze became a single pass.
func TestMappingHopMetricsUnchanged(t *testing.T) {
	g, err := machine.GridFor(256)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := machine.TorusFor(256)
	if err != nil {
		t.Fatal(err)
	}
	rects := []alloc.Rect{{X: 0, Y: 0, W: 8, H: 16}, {X: 8, Y: 0, W: 8, H: 16}}
	// 480 parent pairs, 232 pairs per sibling, 944 in all.
	for _, tc := range []struct {
		build func() (*mapping.Mapping, error)
		want  mapping.Report
	}{
		{func() (*mapping.Mapping, error) { return mapping.MultiLevel(g, tor) },
			mapping.Report{Name: "multilevel", ParentAvg: 496.0 / 480, ParentMax: 2,
				SiblingAvg: []float64{240.0 / 232, 240.0 / 232}, SiblingMax: []int{2, 2},
				OverallAvg: 976.0 / 944, OverallPairs: 944}},
		{func() (*mapping.Mapping, error) { return mapping.Sequential(g, tor) },
			mapping.Report{Name: "sequential", ParentAvg: 784.0 / 480, ParentMax: 3,
				SiblingAvg: []float64{376.0 / 232, 376.0 / 232}, SiblingMax: []int{3, 3},
				OverallAvg: 1536.0 / 944, OverallPairs: 944}},
		{func() (*mapping.Mapping, error) { return mapping.PartitionMapping(g, tor, rects) },
			mapping.Report{Name: "partition", ParentAvg: 544.0 / 480, ParentMax: 5,
				SiblingAvg: []float64{240.0 / 232, 240.0 / 232}, SiblingMax: []int{2, 2},
				OverallAvg: 1024.0 / 944, OverallPairs: 944}},
	} {
		mp, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mapping.Analyze(mp, rects)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, tc.want) {
			t.Errorf("hop metrics changed:\n got %+v\nwant %+v", rep, tc.want)
		}
	}
}
