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
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"nestwrf/internal/driver"
	"nestwrf/internal/machine"
	"nestwrf/internal/predict"
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

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

var registry []Experiment

func register(id, title string, run func() (*Table, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// canonicalOrder lists the experiment ids in the paper's presentation
// order, followed by the beyond-the-paper additions.
var canonicalOrder = []string{
	"fig2", "predict", "fig3", "fig4", "fig56",
	"periter", "fig8", "tab1", "tab2fig9", "fig10", "nsib", "tab3",
	"tab4fig11", "tab5fig12", "fig1314", "alloceff", "fig15", "seasia",
	"abl-contention", "abl-shape", "abl-exchanges", "bgq", "campaign", "steer",
	"ensemble",
}

// All returns the registered experiments in the paper's presentation
// order (unknown ids follow in registration order).
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	rank := map[string]int{}
	for i, id := range canonicalOrder {
		rank[id] = i
	}
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i].ID]
		rj, jok := rank[out[j].ID]
		if iok && jok {
			return ri < rj
		}
		return iok && !jok
	})
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// predictors are trained once per machine and shared across
// experiments (the paper's 13 profiling runs are likewise done once).
// The cache itself lives in internal/driver so the experiment harness,
// facade and plan server all share one trained model per machine
// identity.
func predictorFor(m machine.Machine) (*predict.Model, error) {
	return driver.CachedPredictor(m)
}

// baseOptions builds run options with the shared predictor.
func baseOptions(m machine.Machine, ranks int, strategy driver.Strategy, kind driver.MapKind) (driver.Options, error) {
	p, err := predictorFor(m)
	if err != nil {
		return driver.Options{}, err
	}
	return driver.Options{
		Machine:   m,
		Ranks:     ranks,
		Strategy:  strategy,
		MapKind:   kind,
		Alloc:     driver.AllocPredicted,
		Predictor: p,
	}, nil
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
