// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 4) on the virtual-time simulator. Each
// experiment is registered under the paper artifact's identifier
// (fig2, tab1, tab2fig9, ...) and produces a Table whose rows mirror
// the series the paper reports, alongside the paper's own numbers
// where the text quotes them.
//
// Experiments run concurrently with each other at the width the caller
// passes to RunConcurrent or RunAll; inside one experiment, independent
// configurations fan out over GOMAXPROCS goroutines. Virtual time keeps
// every result deterministic, so neither width changes the output.
package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"nestwrf/internal/driver"
	"nestwrf/internal/machine"
)

// Table is one experiment's result in printable form.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-form note line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if len(t.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range t.Notes {
			fmt.Fprintf(&b, "*%s*\n\n", n)
		}
	}
	return b.String()
}

// Experiment is one entry of the registry.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// registry lists the experiments in the paper's presentation order,
// followed by the beyond-the-paper additions.
var registry = []Experiment{
	{"fig2", "WRF scalability with a subdomain on BG/L (286x307 parent + 415x445 nest)", fig2},
	{"predict", "Performance-prediction accuracy: interpolation vs naive models (Section 3.1)", predictExp},
	{"fig3", "Processor-space partitions in the ratio 0.15:0.3:0.35:0.2 (Fig. 3b)", fig3},
	{"fig4", "Partitioning along the longer vs shorter dimension, k=3 (Fig. 4)", fig4},
	{"fig56", "2D-to-3D mappings of 32 ranks on a 4x4x2 torus (Figs. 5-6)", fig56},
	{"periter", "Per-iteration improvement over 85 random Pacific configs, 1024 BG/L cores (Section 4.3.1)", perIter85},
	{"fig8", "Improvement incl./excl. I/O on 512-4096 BG/P cores, 30 configs (Fig. 8)", fig8},
	{"tab1", "Average and maximum MPI_Wait improvement (Table 1)", tab1},
	{"tab2fig9", "Sibling execution times, 4 siblings on 1024 BG/L cores (Table 2, Fig. 9)", tab2fig9},
	{"fig10", "Large siblings on 1024-8192 BG/P cores (Fig. 10)", fig10},
	{"nsib", "Improvement vs number of siblings (Section 4.3.4)", nsib},
	{"tab3", "Improvement vs maximum nest size on 8192 BG/P cores (Table 3)", tab3},
	{"tab4fig11", "Mappings on 1024 BG/L cores: execution and MPI_Wait times (Table 4, Fig. 11)", tab4fig11},
	{"tab5fig12", "Mappings on 4096 BG/P cores: execution, MPI_Wait and hops (Table 5, Fig. 12)", tab5fig12},
	{"fig1314", "Integration, I/O and total per-iteration time vs BG/P cores with high-frequency output (Figs. 13-14)", fig1314},
	{"alloceff", "Processor-allocation efficiency: naive strips vs Algorithm 1 (Section 4.6)", allocEff},
	{"fig15", "Scalability and speedup, two 259x229 siblings on 32-1024 cores (Fig. 15)", fig15},
	{"seasia", "South-East Asia configurations (Section 4.1.1): eight fixed setups, three with second-level siblings", seasia},
	{"abl-contention", "Ablation: link-contention model on vs off (what topology-awareness removes)", ablContention},
	{"abl-shape", "Ablation: Algorithm 1's square-like bisection vs strips with the same predicted weights", ablShape},
	{"abl-exchanges", "Ablation: sensitivity to halo-exchange message granularity", ablExchanges},
	{"bgq", "Future work: generalized fold on the 5D torus of Blue Gene/Q (Section 6)", bgq},
	{"campaign", "Dynamic regions of interest: a typhoon-season campaign with nest spawning and re-planning", campaignExp},
	{"steer", "Future work: closed-loop steering of the sibling allocation from measured phase times", steerExp},
	{"ensemble", "Ensemble campaigns: perturbed-scenario families with streaming aggregate statistics", ensembleExp},
}

// All returns the experiments in the paper's presentation order.
func All() []Experiment { return slices.Clone(registry) }

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// baseOptions builds run options under the predicted allocation.
func baseOptions(m machine.Machine, ranks int, strategy driver.Strategy, kind driver.MapKind) driver.Options {
	return driver.Options{
		Machine:  m,
		Ranks:    ranks,
		Strategy: strategy,
		MapKind:  kind,
		Alloc:    driver.AllocPredicted,
	}
}

func f(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v) }

// forEach runs fn(i) for every i in [0, n), fanning out over at most
// GOMAXPROCS goroutines — the harness-level counterpart of the paper's
// concurrent siblings. Callers write results to slot i of a pre-sized
// slice, so aggregate output is identical to a sequential loop (virtual
// time keeps each body deterministic).
func forEach(n int, fn func(i int) error) error {
	return claimEach(n, runtime.GOMAXPROCS(0), fn)
}

// claimEach runs fn(i) for every i in [0, n) on at most width
// goroutines, each claiming the next unclaimed index; width <= 1 runs
// inline in index order and stops at the first error. When several
// bodies fail, the error of the smallest index wins — what a
// sequential loop would have reported.
func claimEach(n, width int, fn func(i int) error) error {
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx = n
		first  error
	)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// Outcome pairs an experiment with its result or error.
type Outcome struct {
	Experiment Experiment
	Table      *Table
	Err        error
}

// RunConcurrent executes the given experiments, fanning them out over
// at most parallel goroutines (parallel <= 1 runs them sequentially).
// Outcomes keep the input order regardless of completion order, so
// rendering them in sequence is byte-identical to a sequential run.
func RunConcurrent(exps []Experiment, parallel int) []Outcome {
	out := make([]Outcome, len(exps))
	// An experiment's error is its outcome, never the loop's: the
	// body returns nil so the remaining experiments still run.
	_ = claimEach(len(exps), parallel, func(i int) error {
		tbl, err := exps[i].Run()
		out[i] = Outcome{Experiment: exps[i], Table: tbl, Err: err}
		return nil
	})
	return out
}

// RunAll executes every registered experiment in the paper's
// presentation order with the given experiment-level fan-out.
func RunAll(parallel int) []Outcome { return RunConcurrent(All(), parallel) }
