// Command bench is the repository's one benchmark: seven seeded
// workloads over the whole stack, end-to-end metrics measured with
// tracing off, per-layer metrics from a separate traced run, and a
// correctness check on every output. See README.md in this directory.
//
//	go run ./bench                      every workload, each in a child process
//	go run ./bench -trace               the traced pass: per-layer metrics, span files, layer budget
//	go run ./bench -compare a.json b.json
//	go run ./bench -update-golden
//	go run ./bench --workload plan-hot --seed 1 --seconds 10 --trace 0
//
// The last form is what the suite (and the PR driver) runs per
// workload; it prints one JSON object as its last line of output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// normalizeArgs lets --trace be written both as a bare switch and with
// a 0/1 value in the next argument, which the flag package's boolean
// flags do not accept.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" {
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				out = append(out, "-trace="+args[i+1])
				i++
			} else {
				out = append(out, "-trace=1")
			}
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workloadName := fs.String("workload", "", "run this one workload in this process and print its result line")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 8, "seconds of timed reps per workload")
	trace := fs.Int("trace", 0, "1: traced pass, per-layer metrics; 0: end-to-end metrics, tracer and registry nil")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	fs.BoolVar(&updateGolden, "update-golden", false, "record bench/golden from this run instead of checking it")
	out := fs.String("out", "", "result file of the suite (default bench/out/result[.trace].json)")
	_ = fs.Parse(normalizeArgs(os.Args[1:]))

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fatal("usage: go run ./bench -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1)))
	case *workloadName != "":
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal("unknown workload %q", *workloadName)
		}
		res, err := runWorkload(w, *seed, *seconds, *trace == 1, fullRun)
		if err != nil {
			fatal("%v", err)
		}
		if err := writeJSONFile(resultPath(w.name, res.Trace), res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		printResult(os.Stdout, res)
		fmt.Println(resultLine(res))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		os.Exit(runSuite(*seed, *seconds, *trace == 1, *out))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func outDir() string { return filepath.Join(benchDir(), "out") }

func resultPath(workload string, trace bool) string {
	name := workload + ".json"
	if trace {
		name = workload + ".trace.json"
	}
	return filepath.Join(outDir(), name)
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultLine is the contract's last line of output: exactly the keys
// correct, attempted, failed and metrics, each metric a value and a
// unit.
func resultLine(res *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for k, v := range res.Metrics {
		line.Metrics[k] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	return string(b)
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }
