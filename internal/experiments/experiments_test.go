package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"nestwrf/internal/machine"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "predict", "fig3", "fig4", "fig56", "abl-contention", "abl-shape", "abl-exchanges", "bgq", "campaign", "seasia", "steer",
		"periter", "fig8", "tab1", "tab2fig9", "fig10", "nsib", "tab3",
		"tab4fig11", "tab5fig12", "fig1314", "alloceff", "fig15", "ensemble",
	}
	var ids []string
	have := map[string]bool{}
	for _, e := range All() {
		ids = append(ids, e.ID)
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registered %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	if _, ok := ByID("fig2"); !ok {
		t.Error("ByID(fig2) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) should fail")
	}
}

// Every registered experiment must run and produce rows; ids must match
// the table, and both renderers must include every cell.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table id %q != experiment id %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			text := tbl.String()
			md := tbl.Markdown()
			for _, row := range tbl.Rows {
				for _, cell := range row {
					if !strings.Contains(text, cell) {
						t.Errorf("text output missing cell %q", cell)
					}
					if !strings.Contains(md, cell) {
						t.Errorf("markdown output missing cell %q", cell)
					}
				}
			}
		})
	}
}

// pctVal parses a "12.34%" cell.
func pctVal(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a percentage: %v", cell, err)
	}
	return v
}

// The headline reproduction bands: who wins and by roughly what factor.
func TestHeadlineBands(t *testing.T) {
	if testing.Short() {
		t.Skip("headline band checks skipped in -short mode")
	}
	t.Run("periter", func(t *testing.T) {
		tbl, err := perIter85()
		if err != nil {
			t.Fatal(err)
		}
		avg := pctVal(t, tbl.Rows[0][1])
		max := pctVal(t, tbl.Rows[1][1])
		if avg < 15 || avg > 40 {
			t.Errorf("average improvement %.1f%% outside band around the paper's 21.14%%", avg)
		}
		if max < 25 || max > 55 {
			t.Errorf("max improvement %.1f%% outside band around the paper's 33.04%%", max)
		}
	})
	t.Run("predict", func(t *testing.T) {
		tbl, err := predictExp()
		if err != nil {
			t.Fatal(err)
		}
		ours := pctVal(t, tbl.Rows[0][1])
		naive := pctVal(t, tbl.Rows[1][1])
		if ours > 6 {
			t.Errorf("interpolation error %.2f%% above the paper's 6%%", ours)
		}
		if naive < 19 {
			t.Errorf("naive error %.2f%% below the paper's 19%%", naive)
		}
	})
	t.Run("fig10-crossover", func(t *testing.T) {
		tbl, err := fig10()
		if err != nil {
			t.Fatal(err)
		}
		first := pctVal(t, tbl.Rows[0][3])
		last := pctVal(t, tbl.Rows[len(tbl.Rows)-1][3])
		if first >= last {
			t.Errorf("improvement must grow with machine size: %.1f%% -> %.1f%%", first, last)
		}
		if first > 15 {
			t.Errorf("1024-core improvement %.1f%% too large (paper: 1.33%%)", first)
		}
		if last < 15 {
			t.Errorf("8192-core improvement %.1f%% too small (paper: 20.64%%)", last)
		}
	})
	t.Run("fig1314-io-fraction-grows", func(t *testing.T) {
		tbl, err := fig1314()
		if err != nil {
			t.Fatal(err)
		}
		firstFrac := pctVal(t, tbl.Rows[0][4])
		lastFrac := pctVal(t, tbl.Rows[len(tbl.Rows)-1][4])
		if lastFrac <= firstFrac {
			t.Errorf("sequential I/O fraction must grow with scale: %.1f%% -> %.1f%%", firstFrac, lastFrac)
		}
		if lastFrac < 50 {
			t.Errorf("I/O fraction at 8192 cores %.1f%% should dominate (paper Fig. 14)", lastFrac)
		}
	})
	t.Run("alloceff-ordering", func(t *testing.T) {
		tbl, err := allocEff()
		if err != nil {
			t.Fatal(err)
		}
		// Rows: default, equal, naive, ours (iter time in column 1).
		get := func(i int) float64 {
			v, err := strconv.ParseFloat(tbl.Rows[i][1], 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		def, equal, naive, ours := get(0), get(1), get(2), get(3)
		if !(ours < naive && naive < equal && equal < def) {
			t.Errorf("ordering violated: ours %.2f, naive %.2f, equal %.2f, default %.2f",
				ours, naive, equal, def)
		}
	})
}

// Two machines that share a name but differ in a cost-model field must
// not share a cached predictor (regression: the cache used to be keyed
// by Name alone).
func TestPredictorCacheKeyedByMachineIdentity(t *testing.T) {
	a := machine.BGL()
	b := machine.BGL()
	b.PointCost *= 2 // same Name, different cost model
	pa, err := predictorFor(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := predictorFor(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Fatal("same-name machines with different cost models share a predictor")
	}
	again, err := predictorFor(a)
	if err != nil {
		t.Fatal(err)
	}
	if again != pa {
		t.Error("identical machine should hit the cache")
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out := make([]int, 100)
		if err := claimEach(len(out), workers, func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// When several indices fail, claimEach must report the smallest
// index's error — what a sequential loop would have returned.
func TestForEachFirstErrorWins(t *testing.T) {
	err := claimEach(50, 8, func(i int) error {
		if i%10 == 3 {
			return fmt.Errorf("fail at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 3" {
		t.Errorf("err = %v, want the smallest-index failure", err)
	}
}

// RunConcurrent must keep outcomes in input order and capture errors
// without aborting the remaining experiments.
func TestRunConcurrentOrderAndErrors(t *testing.T) {
	boom := errors.New("boom")
	var exps []Experiment
	for i := 0; i < 8; i++ {
		i := i
		exps = append(exps, Experiment{
			ID:    fmt.Sprintf("e%d", i),
			Title: "fake",
			Run: func() (*Table, error) {
				if i == 2 {
					return nil, boom
				}
				return &Table{ID: fmt.Sprintf("e%d", i)}, nil
			},
		})
	}
	for _, parallel := range []int{1, 4} {
		outcomes := RunConcurrent(exps, parallel)
		if len(outcomes) != len(exps) {
			t.Fatalf("parallel=%d: %d outcomes", parallel, len(outcomes))
		}
		for i, o := range outcomes {
			if o.Experiment.ID != fmt.Sprintf("e%d", i) {
				t.Errorf("parallel=%d: outcome %d is %s (order lost)", parallel, i, o.Experiment.ID)
			}
			if i == 2 {
				if !errors.Is(o.Err, boom) {
					t.Errorf("parallel=%d: outcome 2 err = %v", parallel, o.Err)
				}
			} else if o.Err != nil || o.Table == nil || o.Table.ID != o.Experiment.ID {
				t.Errorf("parallel=%d: outcome %d = %+v", parallel, i, o)
			}
		}
	}
}

// The heavy experiments fan out over their configurations; their
// rendered tables must be byte-identical to the sequential run.
func TestParallelOutputMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy determinism check skipped in -short mode")
	}
	heavy := []string{"periter", "fig8", "tab1", "nsib", "tab3"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	render := func(workers int) string {
		runtime.GOMAXPROCS(workers)
		var b strings.Builder
		for _, id := range heavy {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("%s not registered", id)
			}
			tbl, err := e.Run()
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", id, workers, err)
			}
			b.WriteString(tbl.String())
			b.WriteString(tbl.Markdown())
		}
		return b.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Error("parallel experiment output differs from sequential")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bb"},
	}
	tbl.AddRow("1", "2")
	tbl.AddNote("note %d", 7)
	s := tbl.String()
	if !strings.Contains(s, "== x: demo ==") || !strings.Contains(s, "note: note 7") {
		t.Errorf("text rendering:\n%s", s)
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "### x: demo") || !strings.Contains(md, "| a | bb |") {
		t.Errorf("markdown rendering:\n%s", md)
	}
}
