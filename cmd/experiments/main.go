// Command experiments regenerates the tables and figures of the
// paper's evaluation on the virtual-time simulator.
//
// Usage:
//
//	experiments -list                # list experiment ids
//	experiments -run fig8            # run one experiment
//	experiments -run fig8,tab1,nsib  # run several, in the given order
//	experiments -all                 # run everything (text)
//	experiments -all -md             # run everything (markdown, for EXPERIMENTS.md)
//	experiments -all -parallel 8     # run 8 experiments at a time (same output)
//
// -parallel is how many experiments run at a time (default: the number
// of CPUs); inside each, the heavy experiments fan out over their
// independent configurations on GOMAXPROCS goroutines. Virtual time
// keeps every result deterministic, so the output is byte-identical to
// -parallel 1.
//
// -all runs every experiment even when some fail; the failures are
// summarized on stderr and the exit status is non-zero.
package main

import (
	"expvar"
	"flag"
	"fmt"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nestwrf/internal/experiments"
	"nestwrf/internal/planserve"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	run := flag.String("run", "", "run experiments by id (comma-separated list)")
	all := flag.Bool("all", false, "run every experiment")
	md := flag.Bool("md", false, "emit markdown instead of aligned text")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "experiments to run at a time")
	debugAddr := flag.String("debug-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof) on this address while running, e.g. localhost:6060")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	var stopDebug func() error
	if *debugAddr != "" {
		stopDebug = startDebugServer(*debugAddr)
	}

	// The work runs inside realMain so the profile defers flush before
	// os.Exit; os.Exit itself would skip them.
	code := realMain(*list, *run, *all, *md, *parallel, *cpuProfile, *memProfile)
	if stopDebug != nil {
		// Shut the debug server down before exiting so a serve failure
		// is reported rather than lost in an orphaned goroutine.
		if err := stopDebug(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: debug server: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

func realMain(list bool, run string, all, md bool, parallel int, cpuProfile, memProfile string) int {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if memProfile != "" {
		defer func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
			}
		}()
	}

	switch {
	case list:
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return 0
	case run != "":
		exps, err := selectExperiments(run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v; try -list\n", err)
			return 2
		}
		return emitAll(experiments.RunConcurrent(exps, parallel), md)
	case all:
		return emitAll(experiments.RunAll(parallel), md)
	default:
		flag.Usage()
		return 2
	}
}

// startDebugServer serves the process's expvar and pprof endpoints in
// the background so long experiment sweeps can be profiled live. The
// handlers register on http.DefaultServeMux via their package imports
// (a nil handler serves that mux); a listen failure is fatal so a
// typoed address does not silently run unprofiled. The returned stop
// function shuts the server down gracefully and surfaces any serve
// error.
func startDebugServer(addr string) func() error {
	expvar.NewString("nestwrf_component").Set("experiments")
	bound, stop, err := planserve.StartServer(addr, nil, 2*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: debug server on %s: %v\n", addr, err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof and /debug/vars\n", bound)
	return stop
}

// selectExperiments resolves a comma-separated id list in the order
// given.
func selectExperiments(spec string) ([]experiments.Experiment, error) {
	var exps []experiments.Experiment
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("no experiment ids in %q", spec)
	}
	return exps, nil
}

// emitAll prints every successful table in order, reports failures on
// stderr, and returns the process exit code: 0 when everything
// succeeded, 1 otherwise.
func emitAll(outcomes []experiments.Outcome, md bool) int {
	var failed []string
	for _, o := range outcomes {
		if o.Err != nil {
			failed = append(failed, o.Experiment.ID)
			fmt.Fprintf(os.Stderr, "%s: %v\n", o.Experiment.ID, o.Err)
			continue
		}
		if md {
			fmt.Println(o.Table.Markdown())
		} else {
			fmt.Println(o.Table.String())
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d experiments failed: %s\n",
			len(failed), len(outcomes), strings.Join(failed, ", "))
		return 1
	}
	return 0
}
