// Command planserve runs the planning service: an HTTP/JSON server
// answering plan and compare queries over a shared bounded plan cache
// with singleflight deduplication and a worker pool for cache-miss
// planning.
//
// Usage:
//
//	planserve -addr localhost:8080
//	planserve -addr localhost:8080 -cache-size 4096 -workers 8
//	planserve -loadgen http://localhost:8080 -duration 2s -concurrency 16
//
// Endpoints:
//
//	POST /v1/plan         full plan (weights, partitions, mapping quality, cost)
//	POST /v1/compare      sequential-vs-concurrent comparison
//	POST /v1/plan/batch   up to 256 plan queries in one call, per-item plans or errors
//	GET  /v1/stats        plan-cache occupancy and hit/miss/join counters
//	GET  /healthz         liveness
//	GET  /metrics         request counters and latency histograms (text)
//	GET  /debug/vars      expvar (includes the metrics snapshot)
//	GET  /debug/pprof     live profiling
//
// Whether a response came from the shared cache is reported in the
// X-Plan-Cache header ("hit" or "miss"); hit and cold bodies are
// byte-identical.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight requests for up to -grace.
//
// -loadgen turns the binary into a load-test client: it hammers a
// running server with the canonical two-typhoon plan query and reports
// sustained throughput and the cache hit ratio. With -churn the client
// cycles through distinct jittered sibling-rect geometries instead,
// exercising the cold-miss planning path, and reports cold (miss) and
// warm (hit) throughput separately.
//
// -snapshot makes the plan cache persistent: the file lists the
// resident keys, and the server plans each again before accepting
// traffic (keys whose machine identity no longer matches, or that are
// not a request the server would plan, are rejected), saves it every
// -snapshot-every, and saves once more on graceful shutdown — so a
// restarted server answers its first repeat query as a cache hit with
// a byte-identical body.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nestwrf/internal/metrics"
	"nestwrf/internal/planserve"
	"nestwrf/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	cacheSize := flag.Int("cache-size", 1024, "maximum cached plans")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "maximum concurrent cache-miss planning jobs")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	grace := flag.Duration("grace", 5*time.Second, "shutdown drain window")
	loadgen := flag.String("loadgen", "", "run as a load-test client against this base URL instead of serving")
	duration := flag.Duration("duration", 2*time.Second, "loadgen: how long to hammer")
	concurrency := flag.Int("concurrency", 2*runtime.GOMAXPROCS(0), "loadgen: concurrent clients")
	churn := flag.Bool("churn", false,
		"loadgen: cycle distinct jittered geometries (cold-miss mode) instead of one repeated query")
	snapshot := flag.String("snapshot", "",
		"plan-cache snapshot file: warm-load on start, save on shutdown")
	snapshotEvery := flag.Duration("snapshot-every", 0,
		"also save the snapshot at this interval while serving (0 = only on shutdown)")
	traceOut := flag.String("trace-out", "",
		"on shutdown, write a Chrome/Perfetto trace (request -> cache lookup -> driver phases) to this file")
	spansOut := flag.String("spans-out", "", "on shutdown, write the raw span dump (nestwrf/spans/v1 JSON) to this file")
	logLines := flag.Bool("log", false, "structured request logging (slog) to stderr")
	flag.Parse()

	if *loadgen != "" {
		os.Exit(runLoadgen(*loadgen, *duration, *concurrency, *churn))
	}
	os.Exit(serve(serveOpts{
		addr: *addr, cacheSize: *cacheSize, workers: *workers,
		timeout: *timeout, grace: *grace,
		traceOut: *traceOut, spansOut: *spansOut, logLines: *logLines,
		snapshot: *snapshot, snapshotEvery: *snapshotEvery,
	}))
}

// serveOpts bundles the serving-mode flags.
type serveOpts struct {
	addr               string
	cacheSize, workers int
	timeout, grace     time.Duration
	traceOut, spansOut string
	logLines           bool
	snapshot           string
	snapshotEvery      time.Duration
}

// serve runs the planning service until SIGINT/SIGTERM.
func serve(o serveOpts) int {
	reg := metrics.NewRegistry()
	var tracer *telemetry.Tracer
	if o.traceOut != "" || o.spansOut != "" {
		tracer = telemetry.New(telemetry.Config{})
	}
	var logger *slog.Logger
	if o.logLines {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srv := planserve.New(planserve.Config{
		CacheSize:      o.cacheSize,
		Workers:        o.workers,
		RequestTimeout: o.timeout,
		Metrics:        reg,
		Tracer:         tracer,
		Log:            logger,
	})
	defer srv.Close()

	if o.snapshot != "" {
		loaded, rejected, err := srv.LoadSnapshot(o.snapshot)
		switch {
		case err != nil && os.IsNotExist(err):
			fmt.Fprintf(os.Stderr, "planserve: snapshot %s absent, starting cold\n", o.snapshot)
		case err != nil:
			// A bad snapshot degrades to a cold start; it must never
			// keep the service down.
			fmt.Fprintf(os.Stderr, "planserve: snapshot load: %v (starting cold)\n", err)
		default:
			fmt.Fprintf(os.Stderr, "planserve: snapshot %s: warm-loaded %d entries, rejected %d\n",
				o.snapshot, loaded, rejected)
		}
	}

	expvar.NewString("nestwrf_component").Set("planserve")
	expvar.Publish("nestwrf_planserve_metrics", expvar.Func(func() any { return reg.Snapshot() }))

	// The service mux handles its own routes; /debug/* (expvar, pprof)
	// goes to the default mux.
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/debug/", http.DefaultServeMux)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "planserve: listen %s: %v\n", o.addr, err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.snapshot != "" && o.snapshotEvery > 0 {
		go func() {
			tick := time.NewTicker(o.snapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if _, err := srv.SaveSnapshot(o.snapshot); err != nil {
						fmt.Fprintf(os.Stderr, "planserve: snapshot save: %v\n", err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	fmt.Fprintf(os.Stderr, "planserve: serving on http://%s (cache %d, workers %d)\n",
		ln.Addr(), o.cacheSize, o.workers)
	if err := planserve.ServeUntil(ctx, ln, mux, o.grace); err != nil {
		fmt.Fprintf(os.Stderr, "planserve: %v\n", err)
		return 1
	}
	if o.snapshot != "" {
		// Save after draining but before Close empties the cache.
		saved, err := srv.SaveSnapshot(o.snapshot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "planserve: snapshot save: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "planserve: snapshot %s: saved %d entries\n", o.snapshot, saved)
		}
	}
	entries, hits, misses, evictions := srv.CacheStats()
	fmt.Fprintf(os.Stderr, "planserve: shut down cleanly (cache entries %d, hits %d, misses %d, evictions %d, joins %d)\n",
		entries, hits, misses, evictions, srv.CacheJoins())
	if err := tracer.WriteFiles("planserve", o.traceOut, o.spansOut); err != nil {
		fmt.Fprintf(os.Stderr, "planserve: %v\n", err)
		return 1
	}
	return 0
}

// loadgenBody is the canonical two-typhoon Pacific query (the paper's
// Table 5 configuration shape).
const loadgenBody = `{
	"machine": "bgl",
	"ranks": 256,
	"strategy": "concurrent",
	"alloc": "predicted",
	"mapping": "multilevel",
	"domain": {
		"name": "pacific", "nx": 286, "ny": 307,
		"children": [
			{"name": "t1", "nx": 394, "ny": 418, "ratio": 3, "off_x": 5, "off_y": 5},
			{"name": "t2", "nx": 313, "ny": 337, "ratio": 3, "off_x": 140, "off_y": 150}
		]
	}
}`

// churnVariants is the size of the churn mode's geometry space: each
// variant jitters the two sibling rects on a quantized grid, so a
// churn run issues this many distinct plan-cache keys before cycling.
const churnVariants = 512

// churnBody builds the i-th distinct two-sibling geometry. The four
// jitter axes (8 x 4 x 4 x 4 = 512) move the typhoon nests' sizes and
// one track offset, mimicking ensemble storm-track perturbations.
func churnBody(i int) string {
	v := i % churnVariants
	a := v % 8
	b := (v / 8) % 4
	c := (v / 32) % 4
	d := (v / 128) % 4
	return fmt.Sprintf(`{
		"machine": "bgl",
		"ranks": 256,
		"strategy": "concurrent",
		"alloc": "predicted",
		"mapping": "multilevel",
		"domain": {
			"name": "pacific", "nx": 286, "ny": 307,
			"children": [
				{"name": "t1", "nx": %d, "ny": %d, "ratio": 3, "off_x": 5, "off_y": 5},
				{"name": "t2", "nx": %d, "ny": 337, "ratio": 3, "off_x": %d, "off_y": 150}
			]
		}
	}`, 394-6*a, 418+8*b, 313+10*c, 128+12*d)
}

// runLoadgen hammers base's /v1/plan from workers goroutines for the
// given duration. In the default mode every query is the canonical
// two-typhoon body: the first query warms the cache and the steady
// state measures the cache-hot path. In churn mode the clients cycle
// through churnVariants distinct jittered geometries, so the run
// exercises the cold-miss planning path and reports cold (miss) and
// warm (hit) throughput separately.
func runLoadgen(base string, duration time.Duration, workers int, churn bool) int {
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 10 * time.Second}
	if !churn {
		if _, err := postPlan(client, base, loadgenBody); err != nil {
			fmt.Fprintf(os.Stderr, "planserve: loadgen warmup: %v\n", err)
			return 1
		}
	}

	var requests, hits, failures, seq atomic.Int64
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				body := loadgenBody
				if churn {
					body = churnBody(int(seq.Add(1) - 1))
				}
				hit, err := postPlan(client, base, body)
				if err != nil {
					failures.Add(1)
					continue
				}
				requests.Add(1)
				if hit {
					hits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	n := requests.Load()
	h := hits.Load()
	misses := n - h
	fmt.Printf("requests: %d in %.2fs (%d clients)\n", n, elapsed, workers)
	if churn {
		fmt.Printf("cold (miss) throughput: %.0f plan-queries/sec (%d requests)\n",
			float64(misses)/elapsed, misses)
		fmt.Printf("warm (hit) throughput:  %.0f plan-queries/sec (%d requests)\n",
			float64(h)/elapsed, h)
	} else {
		fmt.Printf("throughput: %.0f plan-queries/sec\n", float64(n)/elapsed)
	}
	fmt.Printf("cache hits: %d (%.1f%%), failures: %d\n",
		h, 100*float64(h)/float64(max(n, 1)), failures.Load())
	if failures.Load() > 0 || n == 0 {
		return 1
	}
	return 0
}

// postPlan sends one plan query and reports whether it was a cache
// hit.
func postPlan(client *http.Client, base, body string) (hit bool, err error) {
	resp, err := client.Post(base+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(raw, &e)
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
	}
	return resp.Header.Get(planserve.CacheHeader) == "hit", nil
}
