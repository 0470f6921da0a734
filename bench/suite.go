package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// suiteSchema tags the result file of a whole-suite run.
const suiteSchema = "nestwrf/bench-result/v1"

// suiteResult is the one result file go run ./bench writes: host and
// build identity, seed, and every workload's run with rep counts and
// quartiles beside each median.
type suiteResult struct {
	Schema    string       `json:"schema"`
	Host      hostInfo     `json:"host"`
	Seed      int64        `json:"seed"`
	Seconds   float64      `json:"seconds"`
	Trace     bool         `json:"trace"`
	Workloads []*runResult `json:"workloads"`
}

// benchmarkSpec mirrors BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// process runs there or inside bench/.
func loadSpec() (*benchmarkSpec, error) {
	path := "BENCHMARK.json"
	if benchDir() == "." {
		path = filepath.Join("..", path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func printResult(w io.Writer, res *runResult) {
	mode := "end-to-end (tracer and registry nil)"
	if res.Trace {
		mode = "traced pass, per-layer"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s\n", res.Workload, res.Seed, mode)
	fmt.Fprintf(w, "  op = one %s; %d reps, %d set-ups; attempted %d, failed %d, fail_share %g\n",
		res.Op, res.Reps, res.Setups, res.Attempted, res.Failed, res.FailShare)
	if res.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", res.FirstError)
	}
	for _, k := range sortedKeys(res.Metrics) {
		v := res.Metrics[k]
		fmt.Fprintf(w, "  %-36s %16.4f %-6s", k, v.Value, v.Unit)
		if v.N > 0 {
			fmt.Fprintf(w, " (q1 %.4f, q3 %.4f, n %d)", v.Q1, v.Q3, v.N)
		}
		fmt.Fprintln(w)
	}
	for _, k := range sortedKeys(res.Info) {
		v := res.Info[k]
		fmt.Fprintf(w, "  %-36s %16.4f %-6s (n %d; reported, not gated)\n", k, v.Value, v.Unit, v.N)
	}
	if res.Budget != "" {
		fmt.Fprint(w, res.Budget)
	}
}

// runSuite runs every workload in a fresh child process of this same
// binary, one after another, and writes the merged result file.
func runSuite(seed int64, seconds float64, trace bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	suite := &suiteResult{Schema: suiteSchema, Host: readHostInfo(), Seed: seed, Seconds: seconds, Trace: trace}
	failed := false
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
		if trace {
			args[len(args)-1] = "1"
		}
		if updateGolden {
			args = append(args, "-update-golden")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			fatal("%v", err)
		}
		if err := cmd.Start(); err != nil {
			fatal("%v", err)
		}
		// Pass the child's report through, except its machine line.
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			if line := sc.Text(); !strings.HasPrefix(line, `{"correct":`) {
				fmt.Println(line)
			}
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			failed = true
		}
		var res runResult
		b, err := os.ReadFile(resultPath(w.name, trace))
		if err == nil {
			err = json.Unmarshal(b, &res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: no result: %v\n", w.name, err)
			failed = true
			continue
		}
		if !res.Correct {
			failed = true
		}
		suite.Workloads = append(suite.Workloads, &res)
	}
	if out == "" {
		out = filepath.Join(outDir(), "result.json")
		if trace {
			out = filepath.Join(outDir(), "result.trace.json")
		}
	}
	if err := writeJSONFile(out, suite); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("result file: %s\n", out)
	if failed {
		fmt.Println("FAILED: at least one workload failed its correctness check or did not finish")
		return 1
	}
	return 0
}

// loadSuite reads a suite result file.
func loadSuite(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != suiteSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, suiteSchema)
	}
	return &s, nil
}

// compareFiles applies BENCHMARK.json's bounds to every (end-to-end
// metric, workload) row of two result files, a the parent and b the
// change. A row whose rep-to-rep spread is wider than its bound is
// unresolved, never "unchanged". Returns the process exit code: 1 when
// a row regressed, 2 when the files cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) int {
	spec, err := loadSpec()
	var a, b *suiteResult
	if err == nil {
		a, err = loadSuite(pathA)
	}
	if err == nil {
		b, err = loadSuite(pathB)
	}
	if err != nil {
		fmt.Fprintln(w, "bench: compare:", err)
		return 2
	}
	return compareSuites(w, spec, a, b)
}

func compareSuites(w io.Writer, spec *benchmarkSpec, a, b *suiteResult) int {
	if a.Host.NProc != b.Host.NProc || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		fmt.Fprintf(w, "bench: compare: refusing: nproc/GOMAXPROCS %d/%d against %d/%d: results from different host sizes are not comparable\n",
			a.Host.NProc, a.Host.GOMAXPROCS, b.Host.NProc, b.Host.GOMAXPROCS)
		return 2
	}
	if a.Trace != b.Trace {
		fmt.Fprintln(w, "bench: compare: refusing: one file is a traced run and the other is not")
		return 2
	}
	if a.Host.CPUModel != b.Host.CPUModel {
		fmt.Fprintf(w, "warning: CPU models differ: %q against %q\n", a.Host.CPUModel, b.Host.CPUModel)
	}
	byName := map[string]*runResult{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	specs := spec.EndToEnd
	if a.Trace {
		specs = spec.PerLayer
	}
	fmt.Fprintf(w, "%-14s %-30s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	exit := 0
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%-14s missing from the second file\n", ra.Workload)
			exit = max(exit, 1)
			continue
		}
		if ra.FailShare != 0 || rb.FailShare != 0 {
			fmt.Fprintf(w, "%-14s %-30s %14g %14g %9s %8s %8d  %s\n", ra.Workload, "fail_share",
				ra.FailShare, rb.FailShare, "", "", 0, "REGRESSION (any failed op)")
			exit = max(exit, 1)
		}
		for _, ms := range specs {
			va, okA := ra.Metrics[ms.Name]
			vb, okB := rb.Metrics[ms.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-14s %-30s missing\n", ra.Workload, ms.Name)
				exit = max(exit, 1)
				continue
			}
			verdict, worse, spread := judge(ms, va, vb)
			if verdict == "REGRESSION" {
				exit = max(exit, 1)
			}
			if a.Trace && verdict == "same" {
				continue // a traced comparison lists only what moved
			}
			fmt.Fprintf(w, "%-14s %-30s %14.4f %14.4f %+8.2f%% %7.2f%% %7.2f%%  %s\n",
				ra.Workload, ms.Name, va.Value, vb.Value, worse*100, spread*100, ms.Bound*100, verdict)
		}
	}
	return exit
}

// judge compares one row. worse is the change in the metric's bad
// direction as a share of a's value; spread is the wider of the two
// runs' inter-quartile ranges over their medians.
func judge(ms metricSpec, a, b metricValue) (verdict string, worse, spread float64) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
		if a.Value < 0 {
			worse = -worse
		}
	}
	if ms.Better == "higher" {
		worse = -worse
	}
	iqr := func(v metricValue) float64 {
		if v.N == 0 || v.Value == 0 {
			return 0
		}
		return quartiles{Q1: v.Q1, Median: v.Value, Q3: v.Q3}.spread()
	}
	spread = max(iqr(a), iqr(b))
	switch {
	case ms.Bound == 0: // a layer metric: no bound, report movement only
		switch {
		case a.Value == b.Value:
			verdict = "same"
		case ms.Unit == "count":
			verdict = "CHANGED (an exact count: a behaviour change)"
		default:
			verdict = "moved"
		}
	case spread > ms.Bound:
		verdict = "unresolved (spread exceeds the bound)"
	case worse > ms.Bound:
		verdict = "REGRESSION"
	case worse < -ms.Bound:
		verdict = "better"
	default:
		verdict = "within bound"
	}
	return verdict, worse, spread
}
