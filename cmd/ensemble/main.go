// Command ensemble runs perturbed-scenario campaigns: thousands of
// members — storm-track-jittered season storylines, sampled nest
// hierarchies, machine/allocation sweeps — executed over a bounded
// worker pool sharing one plan cache, streamed into online aggregate
// statistics (mean, variance, p10/p50/p90) with memory independent of
// campaign size.
//
// Usage:
//
//	ensemble -gen mixed -members 1000 -seed 7
//	ensemble -members 1000 -checkpoint camp.ckpt           # resumable
//	ensemble -members 1000 -checkpoint camp.ckpt -stop-after 200
//	ensemble -members 1000 -checkpoint camp.ckpt           # resumes
//
// A checkpointed campaign stopped mid-run (SIGINT/SIGTERM, or
// -stop-after for rehearsals) writes its committed frontier before it
// exits, resumes from that checkpoint and reproduces the uninterrupted
// run's aggregates bit for bit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"nestwrf/internal/ensemble"
	"nestwrf/internal/metrics"
	"nestwrf/internal/planserve"
	"nestwrf/internal/stats"
	"nestwrf/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("ensemble", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := fs.String("gen", ensemble.GenMixed,
		"generator: "+strings.Join(ensemble.Generators(), ", "))
	members := fs.Int("members", 1000, "campaign size")
	seed := fs.Int64("seed", 1, "campaign seed")
	mach := fs.String("machine", "bgl", "base machine (bgl, bgp)")
	ranks := fs.Int("ranks", 1024, "base processor count")
	steps := fs.Int("steps", 100, "steps per storyline phase")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
	cacheSize := fs.Int("cache-size", 4096, "plan cache entries")
	checkpoint := fs.String("checkpoint", "", "checkpoint file (enables kill/resume)")
	every := fs.Int("checkpoint-every", 64, "commits between checkpoint writes")
	stopAfter := fs.Int("stop-after", 0, "stop after N commits this run (0 = run to completion)")
	fresh := fs.Bool("fresh", false, "ignore an existing checkpoint and start over")
	asJSON := fs.Bool("json", false, "emit the summary as JSON")
	showMetrics := fs.Bool("metrics", false, "dump engine metrics to stderr")
	traceOut := fs.String("trace-out", "",
		"write a Chrome/Perfetto trace (campaign -> sampled members -> driver phases) to this file")
	spansOut := fs.String("spans-out", "", "write the raw span dump (nestwrf/spans/v1 JSON) to this file")
	traceSample := fs.Int("trace-sample", 100, "trace every Nth member (head sampling; 1 traces all)")
	debugAddr := fs.String("debug-addr", "",
		"serve GET /debug/progress and /metrics on this address while the campaign runs")
	logLines := fs.Bool("log", false, "structured campaign logging (slog) to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *fresh && *checkpoint != "" {
		if err := os.Remove(*checkpoint); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(stderr, "ensemble: %v\n", err)
			return 1
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	cache := planserve.NewPlanCache(*cacheSize)
	defer cache.Close()
	reg := metrics.NewRegistry()
	cache.Instrument(reg)

	var tracer *telemetry.Tracer
	if *traceOut != "" || *spansOut != "" {
		tracer = telemetry.New(telemetry.Config{SampleEvery: *traceSample})
	}
	var logger *slog.Logger
	if *logLines {
		logger = slog.New(slog.NewTextHandler(stderr, nil))
	}

	eng := &ensemble.Engine{
		Spec: ensemble.Spec{
			Generator:     *gen,
			Members:       *members,
			Seed:          *seed,
			Machine:       *mach,
			Ranks:         *ranks,
			StepsPerPhase: *steps,
		},
		Workers:         *workers,
		Cache:           cache,
		Metrics:         reg,
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *every,
		StopAfter:       *stopAfter,
		Tracer:          tracer,
		Log:             logger,
	}

	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /debug/progress", func(w http.ResponseWriter, _ *http.Request) {
			p, ok := eng.Progress()
			w.Header().Set("Content-Type", "application/json")
			if !ok {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			_ = json.NewEncoder(w).Encode(p)
		})
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = reg.Snapshot().WriteText(w)
		})
		bound, stop, err := planserve.StartServer(*debugAddr, mux, 2*time.Second)
		if err != nil {
			fmt.Fprintf(stderr, "ensemble: debug listen %s: %v\n", *debugAddr, err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(stderr, "ensemble: debug server: %v\n", err)
			}
		}()
		fmt.Fprintf(stderr, "ensemble: live telemetry on http://%s/debug/progress\n", bound)
	}

	sum, err := eng.Run(ctx)
	// Metrics and traces are worth writing even for failed or
	// interrupted campaigns — that is when they are most needed.
	if *showMetrics {
		reg.Snapshot().WriteText(stderr)
	}
	if werr := tracer.WriteFiles("ensemble campaign", *traceOut, *spansOut); werr != nil {
		fmt.Fprintf(stderr, "ensemble: %v\n", werr)
		if err == nil {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err) // the engine's errors carry the "ensemble: " prefix
		if errors.Is(err, context.Canceled) && *checkpoint != "" {
			fmt.Fprintf(stderr, "ensemble: interrupted; rerun with -checkpoint %s to resume\n", *checkpoint)
		}
		return 1
	}
	if *asJSON {
		encErr := json.NewEncoder(stdout).Encode(sum)
		if encErr != nil {
			fmt.Fprintf(stderr, "ensemble: %v\n", encErr)
			return 1
		}
		return 0
	}
	printSummary(stdout, sum)
	return 0
}

func printSummary(w *os.File, sum *ensemble.Summary) {
	fmt.Fprintf(w, "campaign %s seed=%d: %d/%d members committed",
		sum.Spec.Generator, sum.Spec.Seed, sum.Committed, sum.Spec.Members)
	if sum.ResumedFrom > 0 {
		fmt.Fprintf(w, " (resumed from %d)", sum.ResumedFrom)
	}
	if sum.Stopped {
		fmt.Fprint(w, " [stopped]")
	}
	fmt.Fprintf(w, "\nplan cache: %d hits, %d distinct geometries planned\n",
		sum.CacheHits, sum.CacheMisses)
	if sum.MembersPerSec > 0 {
		fmt.Fprintf(w, "throughput: %.0f members/sec (%.2fs)\n", sum.MembersPerSec, sum.ElapsedSec)
	}
	row := func(name string, s *stats.Stream) {
		if s == nil || s.Count == 0 {
			return
		}
		p10, _ := s.Quantile(0.1)
		p50, _ := s.Quantile(0.5)
		p90, _ := s.Quantile(0.9)
		fmt.Fprintf(w, "  %-16s mean %12.4f  sd %12.4f  p10 %12.4f  p50 %12.4f  p90 %12.4f\n",
			name, s.Mean, s.Stddev(), p10, p50, p90)
	}
	fmt.Fprintln(w, "aggregates (virtual seconds / percent):")
	row("default", sum.Aggregates.DefaultTime)
	row("concurrent", sum.Aggregates.ConcurrentTime)
	row("improvement%", sum.Aggregates.ImprovementPct)
}
