package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nestwrf/internal/metrics"
	"nestwrf/internal/telemetry"
)

// The traced run. It never feeds an end-to-end metric: it re-runs the
// workload at a fixed rep count twice, first with tracer and registry
// nil and then with both handed to the program through its existing
// options, so the difference is the tracing overhead. The spans of the
// traced pass give each layer's share of the workload's time (self
// time: a span's duration minus what its children cover); the probes
// (probes.go) give the layers' absolute times. Counts are fixed, so
// the exact-per-seed counters repeat from run to run.

// traceMaxSpans bounds the span buffer (and the span file).
const traceMaxSpans = 20000

// spanLayers are the layers whose share of the traced time is
// reported: the program's own span layers plus the harness's.
var spanLayers = []string{
	telemetry.LayerServe, telemetry.LayerCache, telemetry.LayerDriver, telemetry.LayerPhase,
	telemetry.LayerCampaign, telemetry.LayerMember, "experiments",
}

// workloadLayerDefaults are the workload-derived layer metrics with
// the value they take when the workload does not touch the layer. None
// carries a unit of time: those are all measured by the probes.
var workloadLayerDefaults = map[string]string{
	"telemetry.overhead_share": "ratio",
	"budget.coverage":          "ratio", "budget.wait_share": "ratio", "budget.untraced_share": "ratio",
	"budget.spans": "count", "budget.dropped_spans": "count",
	"planserve.misses": "count", "planserve.evictions": "count", "planserve.coalesced_plans": "count",
	// "events" marks tallies that depend on timing, so -compare does
	// not call a change in them a behaviour change: a concurrent
	// same-key lookup lands as a hit or a join, the coalescer's batch
	// count follows arrival times, pool drops follow scheduling.
	"planserve.hits": "events", "planserve.joins": "events", "planserve.coalesced_batches": "events",
	"planserve.hit_ratio":     "ratio",
	"ensemble.distinct_plans": "count", "ensemble.hit_ratio": "ratio",
	"mpi.messages": "count", "mpi.bytes": "count", "mpi.pool_hit_ratio": "ratio", "mpi.pool_drops": "events",
	"wrfsim.sim_makespan_ms": "sim_ms", "wrfsim.avg_wait_ms": "sim_ms",
	"wrfsim.setup_share":  "ratio",
	"solver.cell_updates": "count", "solver.bytes_per_cell_computed": "count",
	"experiments.warm_share": "ratio",
}

func init() {
	for _, l := range spanLayers {
		workloadLayerDefaults["budget.share."+l] = "ratio"
	}
	for _, ph := range wrfsimPhases {
		workloadLayerDefaults["wrfsim.phase_share."+ph] = "ratio"
	}
	for _, id := range evalTop5 {
		workloadLayerDefaults["experiments.top5_share."+id] = "ratio"
	}
}

// budget is the layer budget of one traced pass.
type budget struct {
	spans       int
	dropped     uint64
	denominator float64            // traced end-to-end seconds the spans are set against
	self        map[string]float64 // layer -> self seconds
	calls       map[string]int     // layer -> spans
	byName      map[string]float64 // "layer name" -> self seconds
	wait        float64            // self seconds of cache lookups that waited (miss, join)
	truncatedAt float64            // when the span buffer filled, 0 if it did not
}

// analyzeSpans attributes the traced time of the given windows (rep
// intervals, seconds on the tracer's clock) to layers. conc is how
// many ops are in flight at once from the harness's side: the client
// count for the request workloads, one otherwise.
func analyzeSpans(dump telemetry.Dump, windows [][2]float64, conc int) budget {
	b := budget{self: map[string]float64{}, calls: map[string]int{}, byName: map[string]float64{}, dropped: dump.Dropped}
	// Spans are stored when they end, so once the buffer is full the
	// stored set is exactly the spans that ended before that moment:
	// the budget covers the windows up to it and no further.
	limit := 0.0
	if dump.Dropped > 0 {
		for _, s := range dump.Spans {
			limit = max(limit, s.End)
		}
		b.truncatedAt = limit
	}
	inWindow := func(t float64) bool {
		for _, w := range windows {
			if t >= w[0] && t <= w[1] {
				return true
			}
		}
		return false
	}
	for _, w := range windows {
		end := w[1]
		if limit > 0 {
			end = min(end, limit)
		}
		if end > w[0] {
			b.denominator += (end - w[0]) * float64(conc)
		}
	}
	known := map[telemetry.SpanID]bool{}
	children := map[telemetry.SpanID][][2]float64{}
	for _, s := range dump.Spans {
		known[s.ID] = true
	}
	for _, s := range dump.Spans {
		if s.Parent != 0 && known[s.Parent] {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for _, s := range dump.Spans {
		if !inWindow(s.Start) {
			continue
		}
		b.spans++
		dur := s.End - s.Start
		self := dur - covered(children[s.ID], s.Start, s.End)
		if s.Layer == telemetry.LayerCache && spanAttr(s, "outcome") != "hit" {
			b.wait += self // blocked on the coalescer, a worker or another caller's flight
		} else {
			b.self[s.Layer] += self
		}
		b.calls[s.Layer]++
		b.byName[s.Layer+" "+s.Name] += self
	}
	return b
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

func (b budget) share(seconds float64) float64 {
	if b.denominator == 0 {
		return 0
	}
	return seconds / b.denominator
}

func (b budget) coverage() float64 {
	total := b.wait
	for _, s := range b.self {
		total += s
	}
	return b.share(total)
}

// runTraced is the --trace 1 run of one workload.
func runTraced(w workloadDef, e *env, reps int, res *runResult) (*tally, error) {
	epoch := time.Now()
	clock := func() float64 { return time.Since(epoch).Seconds() }
	tr := telemetry.New(telemetry.Config{MaxSpans: traceMaxSpans, SampleEvery: 50, Clock: clock})

	// The probes go first, so their harness spans are in the buffer
	// whatever the workload fills it with afterwards.
	probeMetrics, err := runProbes(e, tr)
	if err != nil {
		return nil, err
	}

	plain, err := measure(w, e, 0, 1, reps)
	if err != nil {
		return nil, err
	}
	te := *e
	te.tracer, te.reg = tr, metrics.NewRegistry()
	var windows [][2]float64
	te.onRep = func(start, end time.Time) {
		windows = append(windows, [2]float64{start.Sub(epoch).Seconds(), end.Sub(epoch).Seconds()})
	}
	traced, err := measure(w, &te, 0, 1, reps)
	if err != nil {
		return nil, err
	}

	conc := 1
	if w.op == "request" {
		conc = e.nproc
	}
	dump := tr.Dump()
	b := analyzeSpans(dump, windows, conc)

	res.Reps = reps
	res.Metrics = map[string]metricValue{}
	for name, unit := range workloadLayerDefaults {
		res.Metrics[name] = metricValue{Unit: unit}
	}
	set := func(name string, v float64) {
		mv, ok := res.Metrics[name]
		if !ok {
			panic("bench: workload-derived layer metric " + name + " is not declared")
		}
		mv.Value = v
		res.Metrics[name] = mv
	}
	set("telemetry.overhead_share", 1-median(traced.rates())/median(plain.rates()))
	set("budget.coverage", b.coverage())
	set("budget.wait_share", b.share(b.wait))
	set("budget.untraced_share", 1-b.coverage())
	set("budget.spans", float64(b.spans))
	set("budget.dropped_spans", float64(b.dropped))
	for _, l := range spanLayers {
		set("budget.share."+l, b.share(b.self[l]))
	}
	for name, v := range traced.counts {
		set(name, v)
	}
	for name, mv := range probeMetrics {
		res.Metrics[name] = mv
	}

	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(outDir(), w.name+".spans.json"))
	if err != nil {
		return nil, err
	}
	if err := dump.EncodeJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	report := budgetReport(w, res, b, plain, traced, probeMetrics)
	if err := os.WriteFile(filepath.Join(outDir(), w.name+".budget.txt"), []byte(report), 0o644); err != nil {
		return nil, err
	}
	res.Budget = report

	// Both passes count towards attempted and failed.
	t := &traced.tally
	t.attempted += plain.tally.attempted
	t.failed += plain.tally.failed
	if t.firstErr == "" {
		t.firstErr = plain.tally.firstErr
	}
	return t, nil
}

// budgetReport renders the layer budget of one workload: self time per
// layer, waiting, counts, coverage and tracing overhead.
func budgetReport(w workloadDef, res *runResult, b budget, plain, traced *measured, probe map[string]metricValue) string {
	var sb strings.Builder
	ops := opsOf(traced)
	fmt.Fprintf(&sb, "layer budget: %s (seed %d, %d traced reps, %d ops, %d spans analysed, %d dropped)\n",
		w.name, res.Seed, len(traced.samples), ops, b.spans, b.dropped)
	fmt.Fprintf(&sb, "  traced end-to-end time set against the spans: %.4f s", b.denominator)
	if b.truncatedAt > 0 {
		fmt.Fprintf(&sb, " (span buffer full: the budget covers the reps up to that moment)")
	}
	fmt.Fprintf(&sb, "\n  %-14s %12s %8s %8s\n", "layer", "self_s", "share", "spans")
	for _, l := range spanLayers {
		if b.calls[l] == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  %-14s %12.6f %8.4f %8d\n", l, b.self[l], b.share(b.self[l]), b.calls[l])
	}
	fmt.Fprintf(&sb, "  %-14s %12.6f %8.4f   (cache lookups blocked on the coalescer, a worker or another flight)\n",
		"waiting", b.wait, b.share(b.wait))
	names := sortedKeys(b.byName)
	sort.SliceStable(names, func(i, j int) bool { return b.byName[names[i]] > b.byName[names[j]] })
	fmt.Fprintf(&sb, "  largest self times by span name:\n")
	for _, n := range names[:min(len(names), 8)] {
		fmt.Fprintf(&sb, "    %-40s %12.6f %8.4f\n", n, b.byName[n], b.share(b.byName[n]))
	}
	cov := b.coverage()
	fmt.Fprintf(&sb, "  coverage %.4f", cov)
	switch {
	case cov < 0.75:
		fmt.Fprintf(&sb, " (below 0.75: %.4f of the traced time is outside every span: %s)", 1-cov, unattributed(w))
	case cov > 1.10:
		fmt.Fprintf(&sb, " (above 1.10: root spans overlap more than the harness's %s in flight)", w.op)
	}
	fmt.Fprintf(&sb, "\n  telemetry.overhead_share %.4f (traced %.2f ops/s, untraced %.2f ops/s)\n",
		res.Metrics["telemetry.overhead_share"].Value,
		float64(ops)/sumWall(traced), float64(opsOf(plain))/sumWall(plain))
	if w.name == "ensemble-cold" || w.name == "ensemble-warm" {
		fmt.Fprintf(&sb, "  note: members are head-sampled 1 in 50; unsampled members count as the campaign layer's self time\n")
	}
	if len(traced.counts) > 0 {
		fmt.Fprintf(&sb, "  counts:\n")
		for _, k := range sortedKeys(traced.counts) {
			fmt.Fprintf(&sb, "    %-36s %g\n", k, traced.counts[k])
		}
	}
	return sb.String()
}

// unattributed names the interval no span covers, per kind of op.
func unattributed(w workloadDef) string {
	switch w.op {
	case "request":
		return "the harness building the request and checking the response between ServeHTTP calls"
	case "member":
		return "engine start-up and wind-down around the campaign span"
	}
	return "work before the run span opens and after it closes (result hashing by the harness)"
}

func opsOf(m *measured) int {
	n := 0
	for _, s := range m.samples {
		n += s.ops
	}
	return n
}

func sumWall(m *measured) float64 {
	t := 0.0
	for _, s := range m.samples {
		t += s.wall
	}
	return t
}
