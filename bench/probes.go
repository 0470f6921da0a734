package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nestwrf/internal/alloc"
	"nestwrf/internal/campaign"
	"nestwrf/internal/driver"
	"nestwrf/internal/ensemble"
	"nestwrf/internal/geom"
	"nestwrf/internal/huffman"
	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/model"
	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/netsim"
	"nestwrf/internal/output"
	"nestwrf/internal/planserve"
	"nestwrf/internal/predict"
	"nestwrf/internal/solver"
	"nestwrf/internal/telemetry"
	"nestwrf/internal/torus"
	"nestwrf/internal/vtopo"
	"nestwrf/internal/workload"
)

// The probes drive every leaf layer from outside, through its public
// functions, on generated inputs, with a harness span (layer = the
// package name) around each batch of calls. They are the absolute
// per-layer times of the traced run; the same suite runs after every
// workload, so each time-valued layer metric is really measured in
// every run. Batches are sized so the whole suite takes a few seconds.

type probes struct {
	e    *env
	tr   *telemetry.Tracer
	root telemetry.SpanID
	out  map[string]metricValue
}

func (ps *probes) set(name string, v float64, unit string) {
	ps.out[name] = metricValue{Value: v, Unit: unit}
}

// n scales a batch size: full size for the benchmark, 1/50 for the
// go test smoke, where only the metric names matter.
func (ps *probes) n(x int) int {
	if ps.e.full {
		return x
	}
	return max(1, x/50)
}

// timeN wraps n calls of fn in one harness span and returns seconds
// per call. A span per call would measure the tracer, not the layer:
// most of these calls are shorter than a Start/End pair.
func (ps *probes) timeN(layer, name string, n int, fn func()) float64 {
	sp := ps.tr.Start(ps.root, name, layer)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	d := time.Since(t0).Seconds()
	sp.Annotate("calls", fmt.Sprint(n))
	sp.End()
	return d / float64(n)
}

// timeEach times n calls of one coarse operation (tens of microseconds
// and up) one by one under a shared harness span and returns the median
// seconds of a call, so one preempted call does not decide the number.
func (ps *probes) timeEach(layer, name string, n int, fn func()) float64 {
	sp := ps.tr.Start(ps.root, name, layer)
	walls := make([]float64, n)
	for i := range walls {
		t0 := time.Now()
		fn()
		walls[i] = time.Since(t0).Seconds()
	}
	sp.Annotate("calls", fmt.Sprint(n))
	sp.End()
	return median(walls)
}

// runProbes runs the suite and returns its metrics.
func runProbes(e *env, tr *telemetry.Tracer) (map[string]metricValue, error) {
	ps := &probes{e: e, tr: tr, out: map[string]metricValue{}}
	root := tr.Start(0, "probes", "bench")
	ps.root = root.ID()
	defer root.End()
	for _, p := range []func() error{
		ps.telemetry, ps.planning, ps.planserve, ps.mappingNetsimModel,
		ps.ensemble, ps.mpi, ps.solver, ps.io,
	} {
		if err := p(); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	return ps.out, nil
}

func (ps *probes) telemetry() error {
	scratch := telemetry.New(telemetry.Config{MaxSpans: 1 << 16})
	n := ps.n(50000)
	per := ps.timeN("telemetry", "Start+End", n, func() { scratch.Start(0, "x", "probe").End() })
	ps.set("telemetry.span_ns", per*1e9, "ns")
	return nil
}

// planning covers predict, geom, huffman, alloc and driver on one block
// of the plan-churn stream (each rank/machine/mapping mix once).
func (ps *probes) planning() error {
	stream := newChurnStream(ps.e.seed)
	var jobs, more []driver.PlanJob
	for i := 0; i < 3*len(churnCombos); i++ {
		// One index per run of the stream, so every combination comes
		// up; from the top of the distinct range, clear of the indices
		// the timed loop uses.
		cfg, opt, err := toJob(stream.request(churnPeriod - 1 - i*churnRun))
		if err != nil {
			return err
		}
		if i < len(churnCombos) {
			jobs = append(jobs, driver.PlanJob{Config: cfg, Options: opt})
		} else {
			more = append(more, driver.PlanJob{Config: cfg, Options: opt})
		}
	}

	// predict: training, then weights.
	resetProgramCaches()
	var trainErr error
	per := ps.timeEach("predict", "TrainPredictor", 5, func() {
		if _, err := driver.TrainPredictor(machine.BGL()); err != nil {
			trainErr = err
		}
	})
	if trainErr != nil {
		return trainErr
	}
	ps.set("predict.train_us", per*1e6, "us")
	for _, m := range []machine.Machine{machine.BGL(), machine.BGP()} {
		if _, err := driver.CachedPredictor(m); err != nil { // so no timed plan below pays training
			return err
		}
	}
	pred, err := driver.CachedPredictor(machine.BGL())
	if err != nil {
		return err
	}
	per = ps.timeN("predict", "Model.Weights", ps.n(500), func() {
		for _, j := range jobs {
			pred.Weights(j.Config.Children)
		}
	})
	ps.set("predict.weights_ns", per/float64(len(jobs))*1e9, "ns")

	// The predictor's accuracy on its own 13-shape basis, interior
	// samples (hull samples must extrapolate when left out).
	samples, err := profileSamples(machine.BGL())
	if err != nil {
		return err
	}
	errs, err := predict.CrossValidate(samples)
	if err != nil {
		return err
	}
	mask, err := predict.InteriorMask(samples)
	if err != nil {
		return err
	}
	worst := 0.0
	for i, re := range errs {
		if mask[i] {
			worst = math.Max(worst, re)
		}
	}
	ps.set("predict.max_rel_err", worst, "ratio")

	// geom: the triangulation the predictor is built on, and point
	// location over the workload's own (aspect, points) stream.
	pts := make([]geom.Point, len(samples))
	for i, s := range samples {
		pts[i] = geom.Pt(s.Aspect, s.Points/1e5)
	}
	var tri *geom.Triangulation
	var triErr error
	per = ps.timeN("geom", "Delaunay(13)", ps.n(300), func() { tri, triErr = geom.Delaunay(pts) })
	if triErr != nil {
		return triErr
	}
	ps.set("geom.delaunay_us", per*1e6, "us")
	var queries []geom.Point
	for _, j := range jobs {
		j.Config.Walk(func(d *nest.Domain) {
			if d != j.Config {
				queries = append(queries, geom.Pt(d.Aspect(), float64(d.Points())/1e5))
			}
		})
	}
	per = ps.timeN("geom", "Locate", ps.n(2000), func() {
		for _, q := range queries {
			tri.Locate(q)
		}
	})
	ps.set("geom.locate_ns", per/float64(len(queries))*1e9, "ns")

	// driver: cold plans one by one, then a batch.
	model.ResetCache()
	plans := make([]*driver.Plan, 0, len(jobs)+len(more))
	var planErr error
	i := 0
	per = ps.timeN("driver", "BuildPlan", len(jobs), func() {
		p, err := driver.BuildPlan(jobs[i].Config, jobs[i].Options)
		if err != nil {
			planErr = err
		}
		plans = append(plans, p)
		i++
	})
	if planErr != nil {
		return planErr
	}
	ps.set("driver.build_plan_us", per*1e6, "us")
	half := len(more) / 2
	per = ps.timeN("driver", "BuildPlans", 2, func() {
		batch, errs := driver.BuildPlans(more[:half], ps.e.nproc)
		for k, err := range errs {
			if err != nil {
				planErr = err
			}
			plans = append(plans, batch[k])
		}
		more = more[half:]
	})
	if planErr != nil {
		return planErr
	}
	ps.set("driver.build_plans_us_per_plan", per/float64(half)*1e6, "us")

	// driver.Run with the program's own spans on a scratch tracer: the
	// run span minus its phase spans is the driver's own time.
	scratch := telemetry.New(telemetry.Config{})
	model.ResetCache()
	i = 0
	per = ps.timeN("driver", "Run", len(jobs), func() {
		opt := jobs[i].Options
		opt.Tracer = scratch
		if _, err := driver.Run(jobs[i].Config, opt); err != nil {
			planErr = err
		}
		i++
	})
	if planErr != nil {
		return planErr
	}
	ps.set("driver.run_us", per*1e6, "us")
	var runDur, phaseDur float64
	for _, sp := range scratch.Dump().Spans {
		switch sp.Layer {
		case telemetry.LayerDriver:
			runDur += sp.End - sp.Start
		case telemetry.LayerPhase:
			phaseDur += sp.End - sp.Start
		}
	}
	ps.set("driver.self_us", (runDur-phaseDur)/float64(len(jobs))*1e6, "us")

	// huffman and alloc on the plans' own weights, and the quality of
	// what Algorithm 1 returned for them.
	g, err := machine.GridFor(1024)
	if err != nil {
		return err
	}
	per = ps.timeN("huffman", "Build", ps.n(2000), func() {
		for _, p := range plans[:len(jobs)] {
			_, _ = huffman.Build(p.Weights)
		}
	})
	ps.set("huffman.build_ns", per/float64(len(jobs))*1e9, "ns")
	per = ps.timeN("alloc", "Partition", ps.n(2000), func() {
		for _, p := range plans[:len(jobs)] {
			_, _ = alloc.Partition(p.Weights, g.Px, g.Py)
		}
	})
	ps.set("alloc.partition_ns", per/float64(len(jobs))*1e9, "ns")
	var propErr, imbalance float64
	for _, p := range plans {
		propErr = math.Max(propErr, alloc.ProportionalityError(p.Rects, p.Weights))
		// Predicted sibling time is weight over allotted processors;
		// max over mean is the load imbalance of the phase.
		var sum, worst float64
		for k, r := range p.Rects {
			t := p.Weights[k] / float64(r.Area())
			sum += t
			worst = math.Max(worst, t)
		}
		imbalance = math.Max(imbalance, worst/(sum/float64(len(p.Rects))))
	}
	ps.set("alloc.prop_err_max", propErr, "ratio")
	ps.set("alloc.imbalance_max", imbalance, "ratio")

	// campaign: the five-phase season storyline under both strategies.
	model.ResetCache()
	var campErr error
	per = ps.timeEach("campaign", "Run(Season)", 5, func() {
		model.ResetCache()
		_, campErr = campaign.Run(campaign.Season(10), driver.Options{
			Machine: machine.BGL(), Ranks: 1024, MapKind: driver.MapMultiLevel})
	})
	if campErr != nil {
		return campErr
	}
	ps.set("campaign.run_us", per*1e6, "us")
	return nil
}

// profileSamples profiles the default basis the way
// driver.TrainPredictor does.
func profileSamples(m machine.Machine) ([]predict.Sample, error) {
	g, err := machine.GridFor(64)
	if err != nil {
		return nil, err
	}
	tor, err := machine.TorusFor(64)
	if err != nil {
		return nil, err
	}
	mp, err := mapping.Sequential(g, tor)
	if err != nil {
		return nil, err
	}
	return predict.Profile(predict.DefaultBasis(), func(nx, ny int) float64 {
		return model.SingleDomainStep(m, mp, nest.Root("probe", nx, ny)).Time()
	}), nil
}

// planserve reads the serving path's layers off the program's own
// spans, on a small server of its own.
func (ps *probes) planserve() error {
	epoch := time.Now()
	scratch := telemetry.New(telemetry.Config{MaxSpans: 1 << 15,
		Clock: func() float64 { return time.Since(epoch).Seconds() }})
	srv := planserve.New(planserve.Config{Tracer: scratch})
	defer srv.Close()
	h := srv.Handler()
	cl := newClient(h, "/v1/plan")
	var bodies [][]byte
	for _, r := range hotRequests(ps.e.seed+1, 16) {
		bodies = append(bodies, mustJSON(r))
	}
	sp := ps.tr.Start(ps.root, "POST /v1/plan: 16 misses, then hits", "planserve")
	for _, b := range bodies {
		if cl.post(b); cl.w.code != 200 {
			return fmt.Errorf("planserve probe: status %d", cl.w.code)
		}
	}
	hits := ps.n(3000)
	lat := make([]int64, 0, hits)
	for i := 0; i < hits; i++ {
		lat = append(lat, int64(cl.post(bodies[i%len(bodies)])))
	}
	sp.End()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ps.set("planserve.req_p99_us", percentileNs(lat, 0.99)/1e3, "us")

	dump := scratch.Dump()
	byID := map[telemetry.SpanID]telemetry.Span{}
	childDur := map[telemetry.SpanID]float64{}
	for _, s := range dump.Spans {
		byID[s.ID] = s
		childDur[s.Parent] += s.End - s.Start
	}
	var serveSelf, hitDur, missDur, waitDur float64
	var nHit, nMiss int
	for _, s := range dump.Spans {
		if s.Layer != telemetry.LayerCache {
			continue
		}
		d := s.End - s.Start
		if spanAttr(s, "outcome") == "hit" {
			nHit++
			hitDur += d
			if parent, ok := byID[s.Parent]; ok {
				serveSelf += parent.End - parent.Start - d
			}
		} else {
			nMiss++
			missDur += d
			waitDur += d - childDur[s.ID]
		}
	}
	if nHit == 0 || nMiss == 0 {
		return fmt.Errorf("planserve probe: %d hit and %d miss spans", nHit, nMiss)
	}
	ps.set("planserve.serve_self_us", serveSelf/float64(nHit)*1e6, "us")
	ps.set("planserve.cache_hit_ns", hitDur/float64(nHit)*1e9, "ns")
	ps.set("planserve.cache_miss_us", missDur/float64(nMiss)*1e6, "us")
	ps.set("planserve.coalesce_wait_us", waitDur/float64(nMiss)*1e6, "us")

	// The batch endpoint on 32 fresh keys.
	var batch planserve.BatchRequest
	stream := newChurnStream(ps.e.seed)
	for i := 0; i < 32; i++ {
		batch.Requests = append(batch.Requests, stream.request(churnPeriod-1-(40+i)*churnRun))
	}
	bcl := newClient(h, "/v1/plan/batch")
	body := mustJSON(batch)
	per := ps.timeN("planserve", "POST /v1/plan/batch x32", 1, func() { bcl.post(body) })
	if bcl.w.code != 200 {
		return fmt.Errorf("planserve probe: batch status %d: %s", bcl.w.code, bcl.w.buf.Bytes())
	}
	ps.set("planserve.batch_us_per_plan", per/32*1e6, "us")

	// Snapshot save and load of a 256-entry cache of small plans.
	cache := planserve.NewPlanCache(512)
	defer cache.Close()
	ctx := context.Background()
	entries := ps.n(256)
	for i := 0; i < entries; i++ {
		cfg := nest.Root("p", 96+i%16, 96+i/16)
		cfg.AddChild("a", 60, 48, 3, 2, 2)
		cfg.AddChild("b", 48, 36, 3, 30, 30)
		if _, _, err := cache.Plan(ctx, cfg, driver.Options{Machine: machine.BGL(), Ranks: 64,
			Strategy: driver.Concurrent}); err != nil {
			return err
		}
	}
	path := filepath.Join(outDir(), fmt.Sprintf("probe-snapshot-%d.json", os.Getpid()))
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	defer os.Remove(path)
	var snapErr error
	per = ps.timeEach("planserve", "SaveSnapshot", 5, func() {
		if n, err := cache.SaveSnapshot(path); err != nil || n != entries {
			snapErr = fmt.Errorf("saved %d entries: %v", n, err)
		}
	})
	if snapErr != nil {
		return snapErr
	}
	ps.set("planserve.snapshot_save_ms", per*1e3, "ms")
	per = ps.timeEach("planserve", "LoadSnapshot", 5, func() {
		fresh := planserve.NewPlanCache(512)
		if n, _, err := fresh.LoadSnapshot(path); err != nil || n != entries {
			snapErr = fmt.Errorf("loaded %d entries: %v", n, err)
		}
		fresh.Close()
	})
	if snapErr != nil {
		return snapErr
	}
	ps.set("planserve.snapshot_load_ms", per*1e3, "ms")
	return nil
}

func spanAttr(s telemetry.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// mappingNetsimModel times the mapping constructors, the congestion
// model under them and the phase-cost model over both, at the two rank
// counts the planner sees most.
func (ps *probes) mappingNetsimModel() error {
	m := machine.BGL()
	cfg := workload.Table2Config()
	weights := []float64{0.4, 0.25, 0.2, 0.15}
	for _, ranks := range []int{1024, 4096} {
		suffix := fmt.Sprintf(".%d", ranks)
		reps := 4096 / ranks * 5
		g, err := machine.GridFor(ranks)
		if err != nil {
			return err
		}
		tor, err := machine.TorusFor(ranks)
		if err != nil {
			return err
		}
		rects, err := alloc.Partition(weights, g.Px, g.Py)
		if err != nil {
			return err
		}
		var mp, multi *mapping.Mapping
		var mapErr error
		build := func(name string, fn func() (*mapping.Mapping, error)) {
			per := ps.timeEach("mapping", name+suffix, reps, func() {
				if mp, err = fn(); err != nil {
					mapErr = fmt.Errorf("mapping %s at %d ranks: %w", name, ranks, err)
				}
			})
			ps.set("mapping."+name+"_us"+suffix, per*1e6, "us")
		}
		build("sequential", func() (*mapping.Mapping, error) { return mapping.Sequential(g, tor) })
		seq := mp
		build("txyz", func() (*mapping.Mapping, error) { return mapping.TXYZ(g, tor, m.CoresPerNode) })
		build("partition", func() (*mapping.Mapping, error) { return mapping.PartitionMapping(g, tor, rects) })
		part := mp
		build("multilevel", func() (*mapping.Mapping, error) { return mapping.MultiLevel(g, tor) })
		multi = mp
		if mapErr != nil {
			return mapErr
		}
		per := ps.timeEach("mapping", "Analyze"+suffix, reps, func() {
			if _, err := mapping.Analyze(multi, rects); err != nil {
				mapErr = err
			}
		})
		if mapErr != nil {
			return mapErr
		}
		ps.set("mapping.analyze_us"+suffix, per*1e6, "us")

		// netsim: the halo flows of the whole grid under the default
		// mapping.
		net, err := netsim.New(tor, m.Net)
		if err != nil {
			return err
		}
		var flows [][2]torus.Coord
		for _, pr := range g.NeighborPairs() {
			flows = append(flows, [2]torus.Coord{seq.NodeOf(pr[0]), seq.NodeOf(pr[1])})
		}
		var addDur, resetDur time.Duration
		sp := ps.tr.Start(ps.root, "AddFlows, Reset"+suffix, "netsim")
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			net.AddFlows(flows)
			t1 := time.Now()
			if i == 0 && ranks == 1024 {
				ps.set("netsim.max_link_load", float64(net.MaxLinkLoad()), "count")
				ps.set("netsim.total_hops", float64(net.TotalHops()), "count")
				t1 = time.Now()
			}
			net.Reset()
			addDur += t1.Sub(t0)
			resetDur += time.Since(t1)
		}
		sp.End()
		ps.set("netsim.add_flows_us"+suffix, addDur.Seconds()/float64(reps)*1e6, "us")
		ps.set("netsim.reset_us"+suffix, resetDur.Seconds()/float64(reps)*1e6, "us")
		net.AddFlows(flows)
		per = ps.timeEach("netsim", "Stats"+suffix, reps, func() { net.Stats() })
		ps.set("netsim.stats_us"+suffix, per*1e6, "us")

		if ranks == 1024 {
			buf := make([]torus.LinkIndex, 0, 64)
			per = ps.timeN("torus", "RouteIndicesInto", ps.n(50), func() {
				for _, f := range flows {
					buf = tor.RouteIndicesInto(f[0], f[1], buf[:0])
				}
			})
			ps.set("torus.route_ns", per/float64(len(flows))*1e9, "ns")

			// model: the concurrent sibling phase of the Table 2
			// domain on the partition mapping, from an empty memo and
			// from a full one.
			var placements []model.Placement
			for i, c := range cfg.Children {
				sg, err := vtopo.NewSubgrid(g, rects[i])
				if err != nil {
					return err
				}
				placements = append(placements, model.Placement{D: c, SG: sg})
			}
			per = ps.timeEach("model", "PhaseCosts(miss)", 10, func() {
				model.ResetCache()
				model.PhaseCosts(m, part, placements)
			})
			ps.set("model.phase_costs_miss_us", per*1e6, "us")
			per = ps.timeN("model", "PhaseCosts(hit)", ps.n(2000), func() { model.PhaseCosts(m, part, placements) })
			ps.set("model.phase_costs_hit_ns", per*1e9, "ns")
		}
	}
	return nil
}

// ensemble times the engine's own pieces, and derives what is left of
// a warm member once they are taken out.
func (ps *probes) ensemble() error {
	members := ps.n(300) + 6
	spec := ensembleSpec(ps.e.seed, members)
	var memErr error
	id := 0
	per := ps.timeN("ensemble", "Spec.Member", 2*members, func() {
		if _, err := spec.Member(id % members); err != nil {
			memErr = err
		}
		id++
	})
	if memErr != nil {
		return memErr
	}
	realize := per
	ps.set("ensemble.member_realize_ns", realize*1e9, "ns")

	agg := ensemble.NewAggregates()
	k := 0
	per = ps.timeN("ensemble", "Aggregates.Ingest", ps.n(50000), func() {
		k++
		agg.Ingest(ensemble.MemberResult{ID: k, Kind: "probe", Default: 1 + float64(k%97)/97,
			Concurrent: 0.7 + float64(k%89)/89, ImprovementPct: float64(k % 41)})
	})
	ingest := per
	ps.set("ensemble.ingest_ns", ingest*1e9, "ns")

	cache := planserve.NewPlanCache(8192)
	defer cache.Close()
	resetProgramCaches()
	ctx := context.Background()
	engine := func() (*ensemble.Summary, error) {
		return (&ensemble.Engine{Spec: spec, Workers: ps.e.nproc, Cache: cache}).Run(ctx)
	}
	cold, err := engine()
	if err != nil {
		return err
	}
	lookups := float64(cold.CacheHits+cold.CacheMisses) / float64(members)
	var engErr error
	warm := ps.timeEach("ensemble", "Engine.Run(warm)", 5, func() {
		if _, err := engine(); err != nil {
			engErr = err
		}
	})
	if engErr != nil {
		return engErr
	}
	// A warm plan-cache hit, as the engine pays it.
	var hitCfg *nest.Domain
	var hitOpt driver.Options
	for id := 0; id < members && hitCfg == nil; id++ {
		if m, err := spec.Member(id); err == nil && m.Config != nil {
			hitCfg, hitOpt = m.Config, m.Opt
			hitOpt.Strategy = driver.Concurrent
		}
	}
	if hitCfg == nil {
		return fmt.Errorf("ensemble probe: no single-configuration member in %d", members)
	}
	var hitErr error
	per = ps.timeN("planserve", "PlanCache.Run(hit)", ps.n(20000), func() {
		if _, hit, err := cache.Run(ctx, hitCfg, hitOpt); err != nil || !hit {
			hitErr = fmt.Errorf("PlanCache.Run: hit=%v err=%v", hit, err)
		}
	})
	if hitErr != nil {
		return hitErr
	}
	ps.set("planserve.cache_hit_direct_ns", per*1e9, "ns")
	perMember := warm * float64(ps.e.nproc) / float64(members)
	ps.set("ensemble.engine_self_us_per_member", (perMember-realize-lookups*per-ingest)*1e6, "us")
	return nil
}

// mpi times the runtime's world set-up and collectives at the paper's
// 8192 ranks, and its point-to-point paths at both functional sizes.
func (ps *probes) mpi() error {
	tm := mpi.AlphaBeta{Alpha: 5e-5, Beta: 1e-9}
	big := ps.e.sz.bigRanks
	var runErr error
	per := ps.timeEach("mpi", fmt.Sprintf("Run(%d, no-op)", big), 3, func() {
		_, runErr = mpi.Run(big, tm, func(*mpi.Proc) error { return nil })
	})
	if runErr != nil {
		return runErr
	}
	ps.set("mpi.world_setup_ms", per*1e3, "ms")

	// Collectives, timed on rank 0 between barriers: a collective is
	// over when its slowest member is.
	const rounds = 4
	var barrier, split, allreduce float64
	sp := ps.tr.Start(ps.root, fmt.Sprintf("Barrier, Split, Allreduce on %d ranks", big), "mpi")
	_, err := mpi.Run(big, tm, func(p *mpi.Proc) error {
		w := p.World()
		if err := w.Barrier(); err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			if err := w.Barrier(); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if _, err := w.Split(p.Rank()%4, p.Rank()); err != nil {
			return err
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		t2 := time.Now()
		for i := 0; i < rounds; i++ {
			if _, err := w.Allreduce(mpi.OpSum, []float64{1}); err != nil {
				return err
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		t3 := time.Now()
		if p.Rank() == 0 {
			barrier = t1.Sub(t0).Seconds() / rounds
			split = t2.Sub(t1).Seconds() - barrier
			allreduce = (t3.Sub(t2).Seconds() - barrier) / rounds
		}
		return nil
	})
	sp.End()
	if err != nil {
		return err
	}
	ps.set("mpi.barrier_us", barrier*1e6, "us")
	ps.set("mpi.split_ms", split*1e3, "ms")
	ps.set("mpi.allreduce_us", allreduce*1e6, "us")

	// Two-rank ping-pong: one round trip.
	trips := ps.n(20000)
	var pingpong float64
	sp = ps.tr.Start(ps.root, "Send/Recv ping-pong", "mpi")
	_, err = mpi.Run(2, tm, func(p *mpi.Proc) error {
		w := p.World()
		buf := make([]float64, 8)
		peer := 1 - p.Rank()
		t0 := time.Now()
		for i := 0; i < trips; i++ {
			if p.Rank() == 0 {
				w.Send(peer, 0, buf)
			}
			got, err := w.Recv(peer, 0)
			if err != nil {
				return err
			}
			w.FreePayload(got)
			if p.Rank() == 1 {
				w.Send(peer, 0, buf)
			}
		}
		if p.Rank() == 0 {
			pingpong = time.Since(t0).Seconds() / float64(trips)
		}
		return nil
	})
	sp.End()
	if err != nil {
		return err
	}
	ps.set("mpi.pingpong_ns", pingpong*1e9, "ns")

	// Four-neighbour halo exchange: small messages on the big world,
	// tile-edge-sized ones on 32 ranks.
	for _, c := range []struct {
		ranks, floats, iters int
	}{{big, 8, 3}, {32, 300, ps.n(300)}} {
		per, err := ps.halo(tm, c.ranks, c.floats, c.iters)
		if err != nil {
			return err
		}
		name := "mpi.halo_ns_per_msg.32"
		if c.ranks != 32 {
			name = "mpi.halo_ns_per_msg.8192"
		}
		ps.set(name, per*1e9, "ns")
	}
	return nil
}

// halo runs iters rounds of Isend/Irecv/WaitAll with every grid
// neighbour and returns wall seconds per message.
func (ps *probes) halo(tm mpi.TimeModel, ranks, floats, iters int) (float64, error) {
	grid, err := machine.GridFor(ranks)
	if err != nil {
		return 0, err
	}
	msgs := 0
	for r := 0; r < ranks; r++ {
		msgs += len(grid.Neighbors(r))
	}
	var wall float64
	sp := ps.tr.Start(ps.root, fmt.Sprintf("Isend/Irecv/WaitAll halo, %d ranks, %d floats", ranks, floats), "mpi")
	_, err = mpi.Run(ranks, tm, func(p *mpi.Proc) error {
		w := p.World()
		nbs := grid.Neighbors(p.Rank())
		payload := make([]float64, floats)
		reqs := make([]*mpi.Request, 0, 2*len(nbs))
		if err := w.Barrier(); err != nil {
			return err
		}
		t0 := time.Now()
		for it := 0; it < iters; it++ {
			reqs = reqs[:0]
			for _, nb := range nbs {
				reqs = append(reqs, w.Irecv(nb, it))
			}
			for _, nb := range nbs {
				w.Isend(nb, it, payload)
			}
			for _, rq := range reqs {
				got, err := rq.Wait()
				if err != nil {
					return err
				}
				w.FreePayload(got)
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			wall = time.Since(t0).Seconds()
		}
		return nil
	})
	sp.End()
	if err != nil {
		return 0, err
	}
	return wall / float64(msgs*iters), nil
}

// solver times the stencil on the per-rank tile of each functional
// workload, and the halo exchange of the 32-rank decomposition.
func (ps *probes) solver() error {
	params := solver.DefaultParams()
	for _, c := range []struct {
		name  string
		w, h  int
		steps int
	}{{"solver.step_ns_per_cell.8192", 5, 3, ps.n(20000)}, {"solver.step_ns_per_cell.32", 99, 53, ps.n(200)}} {
		t, err := solver.NewTile(c.w, c.h, 0, 0, c.w, c.h, params)
		if err != nil {
			return err
		}
		t.Fill(solver.GaussianHill(c.w, c.h, float64(c.w)/2, float64(c.h)/2, 0.5, float64(c.w)/4))
		per := ps.timeN("solver", fmt.Sprintf("Tile.Step %dx%d", c.w, c.h), c.steps, func() {
			t.SetReflective()
			t.Step()
		})
		ps.set(c.name, per/float64(c.w*c.h)*1e9, "ns")
	}

	grid, err := machine.GridFor(32)
	if err != nil {
		return err
	}
	d := workload.Table2Config().Children[0]
	iters := ps.n(200)
	var wall float64
	sp := ps.tr.Start(ps.root, "Tile.Exchange, 32 ranks", "solver")
	_, err = mpi.Run(32, mpi.AlphaBeta{Alpha: 5e-5, Beta: 1e-9}, func(p *mpi.Proc) error {
		x0, y0, w, h := solver.Decompose(d.NX, d.NY, grid, p.Rank())
		t, err := solver.NewTile(d.NX, d.NY, x0, y0, w, h, params)
		if err != nil {
			return err
		}
		t.Fill(solver.GaussianHill(d.NX, d.NY, float64(d.NX)/2, float64(d.NY)/2, 0.5, 40))
		world := p.World()
		if err := world.Barrier(); err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := t.Exchange(world, grid); err != nil {
				return err
			}
		}
		if err := world.Barrier(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			wall = time.Since(t0).Seconds()
		}
		return nil
	})
	sp.End()
	if err != nil {
		return err
	}
	ps.set("solver.exchange_us", wall/float64(iters)*1e6, "us")
	return nil
}

// io times the forecast-record encoder and the write-cost model.
func (ps *probes) io() error {
	st := solver.NewState(workload.PacificParentNX, workload.PacificParentNY)
	for i := range st.H {
		st.H[i] = 1 + float64(i%17)/17
	}
	var buf bytes.Buffer
	var encErr error
	per := ps.timeN("output", "Encode(parent)", 20, func() {
		buf.Reset()
		encErr = output.Encode(&buf, output.Snapshot{Domain: "pacific", Step: 10, State: st})
	})
	if encErr != nil {
		return encErr
	}
	ps.set("output.encode_mb_s", float64(buf.Len())/1e6/per, "MB/s")
	io := machine.BGL().IO
	sink := 0.0
	per = ps.timeN("iosim", "WriteTime", ps.n(1000000), func() { sink += io.WriteTime(iosim.Collective, 32, 1e8) })
	if sink <= 0 {
		return fmt.Errorf("iosim probe: write time %v", sink)
	}
	ps.set("iosim.write_time_ns", per*1e9, "ns")
	return nil
}
