package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
	"nestwrf/internal/workload"
)

// TestReportDigest pins the encoded RunWithReport JSON of a grid of
// runs to the SHA-256 in testdata/report.sha256: every SEAsiaSuite and
// PacificSuite(7, 12) configuration on BG/L at 1024 ranks, under both
// strategies and all four mappings, then one NoContention pair. It was
// recorded while a report run priced its phases through a separate
// congestion-observing entry point, before reports priced through the
// phase memo and table ring as Run does. Re-record the file only for an
// acknowledged change of results.
func TestReportDigest(t *testing.T) {
	golden, err := os.ReadFile("testdata/report.sha256")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	encode := func(cfg *nest.Domain, opt Options) {
		_, rep, err := RunWithReport(cfg, opt)
		if err != nil {
			t.Fatalf("%s %v/%v: %v", cfg.Name, opt.Strategy, opt.MapKind, err)
		}
		if err := rep.EncodeJSON(h); err != nil {
			t.Fatal(err)
		}
	}
	cfgs := append(workload.SEAsiaSuite(), workload.PacificSuite(7, 12)...)
	for _, cfg := range cfgs {
		for _, s := range []Strategy{Sequential, Concurrent} {
			for _, kind := range []MapKind{MapSequential, MapTXYZ, MapPartition, MapMultiLevel} {
				encode(cfg, Options{Machine: machine.BGL(), Ranks: 1024, Strategy: s, MapKind: kind})
			}
		}
	}
	for _, s := range []Strategy{Sequential, Concurrent} {
		encode(cfgs[0], Options{Machine: machine.BGL(), Ranks: 1024, Strategy: s, MapKind: MapMultiLevel, NoContention: true})
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), strings.TrimSpace(string(golden)); got != want {
		t.Errorf("run reports hash to %s, testdata/report.sha256 has %s", got, want)
	}
}
