package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"nestwrf/internal/alloc"
	"nestwrf/internal/driver"
	"nestwrf/internal/ensemble"
	"nestwrf/internal/experiments"
	"nestwrf/internal/metrics"
	"nestwrf/internal/model"
	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/planserve"
	"nestwrf/internal/solver"
	"nestwrf/internal/telemetry"
	"nestwrf/internal/workload"
	"nestwrf/internal/wrfsim"
)

// sizes fixes how much work one timed rep of each workload does. A rep
// is a count, never a duration, so two commits run identical work per
// rep; --seconds only decides how many reps are measured.
type sizes struct {
	hotKeys        int // distinct geometries of plan-hot
	hotPerClient   int // requests per client per rep
	churnPerClient int
	churnWarm      int // warm-up requests per client, per set-up
	members        int // ensemble campaign size
	bigRanks       int // func-8192 rank count
	bigSteps       int
	ioSteps        int // func-32-io parent steps
	ioEvery        int
	evalIDs        []string // nil: every registered experiment
}

var fullSizes = sizes{
	hotKeys: 64, hotPerClient: 20000,
	churnPerClient: 192, churnWarm: 48,
	members:  2000,
	bigRanks: 8192, bigSteps: 2,
	ioSteps: 40, ioEvery: 10,
}

// smokeSizes is roughly 1/100 of fullSizes, for go test ./bench.
var smokeSizes = sizes{
	hotKeys: 8, hotPerClient: 200,
	churnPerClient: 12, churnWarm: 2,
	members:  24,
	bigRanks: 512, bigSteps: 1,
	ioSteps: 2, ioEvery: 1,
	evalIDs: []string{"fig3", "fig4"},
}

// env is what a workload instance is built from. tracer and reg are
// nil on every run that feeds an end-to-end metric; the traced pass
// hands them to the program through its existing public options.
type env struct {
	seed   int64
	nproc  int // client goroutines / workers: the host's core count, no more
	sz     sizes
	full   bool // fullSizes in use, so goldens apply
	tracer *telemetry.Tracer
	reg    *metrics.Registry
	// onRep, when set, hears the interval of every timed rep (the
	// traced pass sets its spans against them).
	onRep func(start, end time.Time)
}

// tally counts operations attempted and failed; a wrong answer is a
// failed op, not a fast one. lat holds the current rep's per-request
// nanoseconds, for the workloads that time single ops.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  string
	lat       []int64
}

func (t *tally) add(attempted int, lat []int64) {
	t.mu.Lock()
	t.attempted += attempted
	t.lat = append(t.lat, lat...)
	t.mu.Unlock()
}

// fail counts one failed op; failN counts n (a failed campaign fails
// every member in it).
func (t *tally) fail(format string, args ...any) { t.failN(1, format, args...) }

func (t *tally) failN(n int, format string, args ...any) {
	t.mu.Lock()
	t.failed += n
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
	t.mu.Unlock()
}

// instance is one set-up workload, ready for timed reps.
type instance interface {
	// prepare runs before every rep, outside the timed interval.
	prepare()
	// rep runs one fixed-size batch of ops and returns how many it ran.
	rep(t *tally) int
	// finish runs the checks that need the whole run (re-planning
	// sampled requests, golden comparison), outside the timed loop.
	finish(t *tally)
	// counts reports the workload's own exact-per-seed layer counters.
	counts() map[string]float64
	close()
}

type workloadDef struct {
	name, why string
	// op is the unit of one op, for the report.
	op string
	// traceReps is how many reps each pass of the traced run makes:
	// fixed, so its exact-per-seed counters repeat from run to run.
	traceReps int
	setup     func(e *env) (instance, error)
}

var workloads = []workloadDef{
	{"plan-hot", "64 warmed keys cycled through POST /v1/plan: hit ratio 1.0, so planserve (decode, key, LRU, encode) does all the work and driver and below none", "request", 2, newPlanHot},
	{"plan-churn", "every POST /v1/plan a distinct key on a 256-entry cache: hit ratio 0.0, every insert evicts, driver.BuildPlans and the layers below carry the time", "request", 2, newPlanChurn},
	{"ensemble-cold", "2000-member mixed campaign on empty caches every rep: seed-fixed hit ratio near 0.76, driver.Run and campaign on ~2.2k distinct plans dominate", "member", 3, newEnsembleCold},
	{"ensemble-warm", "the same campaign over a filled plan cache: member realisation, in-order committer, P2 ingest and cache hits only, no planning", "member", 20, newEnsembleWarm},
	{"func-8192", "functional mini-WRF, Table 2 domain, 8192 ranks, concurrent: mpi world set-up, Split, mailboxes and coupling plans dominate, solver tiles are tiny", "run", 2, newFuncBig},
	{"func-32-io", "same domain on 32 ranks, 40 steps, sequential, output every 10: large tiles, so solver.Tile.Step, Gather and output dominate", "run", 3, newFuncIO},
	{"eval-all", "the paper's whole evaluation (experiments.RunAll) from cold caches every rep: heavy input sharing, so the model memo matters", "run", 1, newEvalAll},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// resetProgramCaches drops the process-wide memo and predictor caches,
// so the next planning call pays what a fresh process pays.
func resetProgramCaches() {
	model.ResetCache()
	driver.ResetPredictorCache()
}

// ---- plan server workloads ----

// memWriter is the in-memory http.ResponseWriter the request workloads
// hand to Server.Handler().ServeHTTP: nobody using this repo pays for
// loopback TCP, and a ~50us socket round trip would bury a 2x change
// in the ~25us handler.
type memWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.hdr }
func (w *memWriter) WriteHeader(c int)   { w.code = c }
func (w *memWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(b)
}

func (w *memWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.buf.Reset()
}

// client posts bodies to one endpoint of a handler, reusing its writer.
type client struct {
	h    http.Handler
	tmpl http.Request
	w    memWriter
	rd   bytes.Reader
}

func newClient(h http.Handler, path string) *client {
	return &client{
		h: h,
		tmpl: http.Request{
			Method: http.MethodPost, URL: &url.URL{Path: path},
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{"Content-Type": {"application/json"}},
			Host:   "bench.local",
		},
		w: memWriter{hdr: http.Header{}},
	}
}

// post serves one request and returns how long ServeHTTP took. The
// response stays in c.w until the next post.
func (c *client) post(body []byte) time.Duration {
	c.w.reset()
	c.rd.Reset(body)
	req := c.tmpl // the mux writes its match into the request, so copy
	req.Body = io.NopCloser(&c.rd)
	req.ContentLength = int64(len(body))
	t0 := time.Now()
	c.h.ServeHTTP(&c.w, &req)
	return time.Since(t0)
}

// forClients runs fn(c) on e.nproc goroutines and waits: the closed
// loop of the request workloads.
func forClients(n int, fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

type planHot struct {
	e       *env
	srv     *planserve.Server
	clients []*client
	bodies  [][]byte
	want    [][]byte
	pos     []int
}

func newPlanHot(e *env) (instance, error) {
	resetProgramCaches()
	p := &planHot{e: e, pos: make([]int, e.nproc)}
	p.srv = planserve.New(planserve.Config{Metrics: e.reg, Tracer: e.tracer})
	h := p.srv.Handler()
	for c := 0; c < e.nproc; c++ {
		p.clients = append(p.clients, newClient(h, "/v1/plan"))
		p.pos[c] = c * e.sz.hotKeys / e.nproc
	}
	for _, r := range hotRequests(e.seed, e.sz.hotKeys) {
		p.bodies = append(p.bodies, mustJSON(r))
	}
	// Warm every key once (misses, planned side by side), keeping the
	// cold body: every later hit must be byte-equal to it.
	p.want = make([][]byte, len(p.bodies))
	errs := make([]error, e.nproc)
	forClients(e.nproc, func(c int) {
		cl := p.clients[c]
		for k := c; k < len(p.bodies); k += e.nproc {
			cl.post(p.bodies[k])
			if cl.w.code != http.StatusOK {
				errs[c] = fmt.Errorf("plan-hot warm-up: key %d: status %d: %s", k, cl.w.code, cl.w.buf.Bytes())
				return
			}
			p.want[k] = bytes.Clone(cl.w.buf.Bytes())
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Warm-up reps: a tenth of a rep, discarded.
	var warm tally
	p.run(&warm, max(e.sz.hotPerClient/10, 1))
	if warm.failed > 0 {
		return nil, fmt.Errorf("plan-hot warm-up: %s", warm.firstErr)
	}
	return p, nil
}

func (p *planHot) run(t *tally, perClient int) int {
	forClients(p.e.nproc, func(c int) {
		cl := p.clients[c]
		lat := make([]int64, 0, perClient)
		k := p.pos[c]
		for i := 0; i < perClient; i++ {
			d := cl.post(p.bodies[k])
			lat = append(lat, int64(d))
			switch {
			case cl.w.code != http.StatusOK:
				t.fail("plan-hot: key %d: status %d", k, cl.w.code)
			case cl.w.hdr.Get(planserve.CacheHeader) != "hit":
				t.fail("plan-hot: key %d: cache header %q, want hit", k, cl.w.hdr.Get(planserve.CacheHeader))
			case !bytes.Equal(cl.w.buf.Bytes(), p.want[k]):
				t.fail("plan-hot: key %d: hit body differs from the cold body", k)
			}
			if k++; k == len(p.bodies) {
				k = 0
			}
		}
		p.pos[c] = k
		t.add(perClient, lat)
	})
	return perClient * p.e.nproc
}

func (p *planHot) prepare()         {}
func (p *planHot) rep(t *tally) int { return p.run(t, p.e.sz.hotPerClient) }
func (p *planHot) finish(t *tally) {
	_, _, misses, evictions := p.srv.CacheStats()
	if int(misses) != len(p.bodies) || evictions != 0 {
		t.fail("plan-hot: %d misses and %d evictions, want %d and 0", misses, evictions, len(p.bodies))
	}
}
func (p *planHot) counts() map[string]float64 { return serverCounts(p.srv, p.e.reg) }
func (p *planHot) close()                     { p.srv.Close() }

// cacheCounts names a plan cache's exact-per-seed counters.
func cacheCounts(hits, misses, evictions, joins uint64) map[string]float64 {
	m := map[string]float64{
		"planserve.hits": float64(hits), "planserve.misses": float64(misses),
		"planserve.evictions": float64(evictions), "planserve.joins": float64(joins),
	}
	if hits+misses > 0 {
		m["planserve.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return m
}

// serverCounts reads the plan server's cache counters, and the
// coalescer's from the registry when the traced pass supplied one.
func serverCounts(srv *planserve.Server, reg *metrics.Registry) map[string]float64 {
	_, hits, misses, evictions := srv.CacheStats()
	m := cacheCounts(hits, misses, evictions, srv.CacheJoins())
	m["planserve.coalesced_batches"] = reg.Counter("planserve_coalesced_batches_total").Value()
	m["planserve.coalesced_plans"] = reg.Counter("planserve_coalesced_plans_total").Value()
	return m
}

type planChurn struct {
	e       *env
	srv     *planserve.Server
	clients []*client
	stream  churnStream
	next    int // first stream index of the next rep
	bodies  [][]byte
	reqs    []planserve.PlanRequest
	served  int
	kept    []keptResponse
	keptMu  sync.Mutex
}

// keptResponse is a sampled response re-planned after the timed loop.
type keptResponse struct {
	req  planserve.PlanRequest
	body []byte
}

// churnKeepEvery: one request in this many is re-planned with
// driver.BuildPlan after the run and compared byte for byte.
const churnKeepEvery = 64

func newPlanChurn(e *env) (instance, error) {
	resetProgramCaches()
	p := &planChurn{e: e, stream: newChurnStream(e.seed)}
	p.srv = planserve.New(planserve.Config{CacheSize: 256, Metrics: e.reg, Tracer: e.tracer})
	h := p.srv.Handler()
	for c := 0; c < e.nproc; c++ {
		p.clients = append(p.clients, newClient(h, "/v1/plan"))
	}
	var warm tally
	p.fill(e.sz.churnWarm)
	p.run(&warm, e.sz.churnWarm)
	if warm.failed > 0 {
		return nil, fmt.Errorf("plan-churn warm-up: %s", warm.firstErr)
	}
	p.kept = nil
	return p, nil
}

// fill generates the next rep's request bodies, outside the timing.
func (p *planChurn) fill(perClient int) {
	n := perClient * p.e.nproc
	p.bodies, p.reqs = p.bodies[:0], p.reqs[:0]
	for i := 0; i < n; i++ {
		r := p.stream.request(p.next + i)
		p.reqs = append(p.reqs, r)
		p.bodies = append(p.bodies, mustJSON(r))
	}
	p.next += n
}

func (p *planChurn) run(t *tally, perClient int) int {
	forClients(p.e.nproc, func(c int) {
		cl := p.clients[c]
		lat := make([]int64, 0, perClient)
		for i := 0; i < perClient; i++ {
			k := i*p.e.nproc + c
			d := cl.post(p.bodies[k])
			lat = append(lat, int64(d))
			if err := checkPlanBody(&cl.w); err != nil {
				t.fail("plan-churn: request %d: %v", k, err)
			} else if k%churnKeepEvery == 0 {
				p.keptMu.Lock()
				p.kept = append(p.kept, keptResponse{p.reqs[k], bytes.Clone(cl.w.buf.Bytes())})
				p.keptMu.Unlock()
			}
		}
		t.add(perClient, lat)
	})
	p.served += perClient * p.e.nproc
	return perClient * p.e.nproc
}

// checkPlanBody checks a cold /v1/plan response from outside: status,
// miss header, a valid partition of the processor grid, and weights
// summing to one.
func checkPlanBody(w *memWriter) error {
	if w.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", w.code, w.buf.Bytes())
	}
	if got := w.hdr.Get(planserve.CacheHeader); got != "miss" {
		return fmt.Errorf("cache header %q, want miss", got)
	}
	var resp planserve.PlanResponse
	if err := json.Unmarshal(w.buf.Bytes(), &resp); err != nil {
		return err
	}
	rects := make([]alloc.Rect, len(resp.Siblings))
	sum := 0.0
	for i, s := range resp.Siblings {
		rects[i] = s.Rect
		sum += s.Weight
	}
	if err := alloc.Validate(rects, resp.Px, resp.Py); err != nil {
		return err
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("weights sum to %v", sum)
	}
	if !(resp.Cost.IterTime > 0) || math.IsInf(resp.Cost.IterTime, 0) {
		return fmt.Errorf("cost %v", resp.Cost.IterTime)
	}
	return nil
}

func (p *planChurn) prepare()         { p.fill(p.e.sz.churnPerClient) }
func (p *planChurn) rep(t *tally) int { return p.run(t, p.e.sz.churnPerClient) }

func (p *planChurn) finish(t *tally) {
	// Distinct keys, proven by the cache itself: every lookup led its
	// own computation.
	_, hits, misses, _ := p.srv.CacheStats()
	if hits != 0 || p.srv.CacheJoins() != 0 || int(misses) != p.served {
		t.fail("plan-churn: %d hits, %d joins, %d misses over %d requests: keys were not distinct",
			hits, p.srv.CacheJoins(), misses, p.served)
	}
	for _, k := range p.kept {
		t.add(1, nil)
		cfg, opt, err := toJob(k.req)
		if err != nil {
			t.fail("plan-churn re-plan: %v", err)
			continue
		}
		plan, err := driver.BuildPlan(cfg, opt)
		if err != nil {
			t.fail("plan-churn re-plan: %v", err)
			continue
		}
		if want := encodePlanResponse(cfg, opt, plan); !bytes.Equal(want, k.body) {
			t.fail("plan-churn: served body differs from driver.BuildPlan's for %s", mustJSON(k.req))
		}
	}
}

// encodePlanResponse renders a plan the way POST /v1/plan does.
func encodePlanResponse(cfg *nest.Domain, opt driver.Options, p *driver.Plan) []byte {
	resp := planserve.PlanResponse{
		Machine: opt.Machine.Name, Ranks: p.Ranks, Px: p.Px, Py: p.Py,
		Strategy: p.Strategy.String(), Alloc: p.Alloc.String(), Mapping: p.MapKind.String(),
		MappingQuality: p.Mapping, Cost: p.Cost,
	}
	for i, c := range cfg.Children {
		resp.Siblings = append(resp.Siblings, planserve.SiblingPlan{Name: c.Name, Weight: p.Weights[i], Rect: p.Rects[i]})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func (p *planChurn) counts() map[string]float64 { return serverCounts(p.srv, p.e.reg) }
func (p *planChurn) close()                     { p.srv.Close() }

// ---- ensemble workloads ----

type ensembleRun struct {
	e     *env
	spec  ensemble.Spec
	cold  bool
	cache *planserve.PlanCache
	want  string // aggregates hash every rep must reproduce
	last  *ensemble.Summary
}

func aggregatesHash(a *ensemble.Aggregates) string {
	sum := sha256.Sum256(mustJSON(a))
	return hex.EncodeToString(sum[:])
}

func (r *ensembleRun) campaign() (*ensemble.Summary, error) {
	eng := &ensemble.Engine{Spec: r.spec, Workers: r.e.nproc, Cache: r.cache,
		Tracer: r.e.tracer, Metrics: r.e.reg}
	return eng.Run(context.Background())
}

func (r *ensembleRun) freshCache() {
	if r.cache != nil {
		r.cache.Close()
	}
	r.cache = planserve.NewPlanCache(8192)
	resetProgramCaches()
}

func newEnsemble(e *env, cold bool) (instance, error) {
	r := &ensembleRun{e: e, spec: ensembleSpec(e.seed, e.sz.members), cold: cold}
	// The set-up pass: what a fresh cmd/ensemble process pays. For
	// ensemble-warm it is also what fills the cache.
	r.freshCache()
	sum, err := r.campaign()
	if err != nil {
		return nil, err
	}
	r.want = aggregatesHash(sum.Aggregates)
	r.last = sum
	if !cold {
		if _, err := r.campaign(); err != nil { // warm-up rep, discarded
			return nil, err
		}
	}
	return r, nil
}

func newEnsembleCold(e *env) (instance, error) { return newEnsemble(e, true) }
func newEnsembleWarm(e *env) (instance, error) { return newEnsemble(e, false) }

func (r *ensembleRun) prepare() {
	if r.cold {
		r.freshCache()
	}
}

func (r *ensembleRun) rep(t *tally) int {
	n := r.spec.Members
	t.add(n, nil)
	sum, err := r.campaign()
	switch {
	case err != nil:
		t.failN(n, "ensemble: %v", err)
	case sum.Committed != n:
		t.failN(n-sum.Committed, "ensemble: committed %d of %d members", sum.Committed, n)
	case aggregatesHash(sum.Aggregates) != r.want:
		t.failN(n, "ensemble: aggregates differ from the set-up pass")
	default:
		r.last = sum
	}
	return n
}

func (r *ensembleRun) finish(t *tally) {
	checkGolden(t, r.e, "ensemble", map[string]string{"aggregates_sha256": r.want})
}

func (r *ensembleRun) counts() map[string]float64 {
	hits, misses, evictions := r.cache.Stats()
	m := cacheCounts(hits, misses, evictions, r.cache.Joins())
	// The campaign's own view: misses count distinct plans.
	m["ensemble.distinct_plans"] = float64(misses)
	m["ensemble.hit_ratio"] = m["planserve.hit_ratio"]
	return m
}

func (r *ensembleRun) close() { r.cache.Close() }

// ---- functional workloads ----

type funcRun struct {
	e      *env
	name   string
	cfg    *nest.Domain
	opt    wrfsim.Options
	want   map[string]string // facts of the first run; later reps must match
	last   *wrfsim.Output
	lastWt float64 // wall seconds of the last run
}

func funcOptions(e *env, ranks, steps int, strat wrfsim.Strategy, every int) wrfsim.Options {
	return wrfsim.Options{
		Ranks: ranks, Steps: steps, Strategy: strat,
		PointCost: 1e-6, TM: mpi.AlphaBeta{Alpha: 5e-5, Beta: 1e-9},
		OutputEverySteps: every,
		Tracer:           e.tracer, Metrics: e.reg,
	}
}

func newFuncBig(e *env) (instance, error) {
	return newFunc(e, "func-8192", funcOptions(e, e.sz.bigRanks, e.sz.bigSteps, wrfsim.Concurrent, 0))
}

func newFuncIO(e *env) (instance, error) {
	return newFunc(e, "func-32-io", funcOptions(e, 32, e.sz.ioSteps, wrfsim.Sequential, e.sz.ioEvery))
}

func newFunc(e *env, name string, opt wrfsim.Options) (instance, error) {
	f := &funcRun{e: e, name: name, cfg: workload.Table2Config(), opt: opt}
	out, err := wrfsim.Run(f.cfg, f.opt) // warm-up rep, discarded; fixes the expected facts
	if err != nil {
		return nil, err
	}
	f.want, err = funcFacts(out, true)
	if err != nil {
		return nil, err
	}
	f.last = out
	return f, nil
}

// funcFacts are the outputs of a functional run that must repeat
// exactly: the virtual makespan, the message and byte totals, the
// number of forecast records, and (full) a hash of every field.
func funcFacts(out *wrfsim.Output, fields bool) (map[string]string, error) {
	msgs, byts := traffic(out)
	facts := map[string]string{
		"max_clock_bits": fmt.Sprintf("%016x", math.Float64bits(out.MaxClock)),
		"send_count":     fmt.Sprint(msgs),
		"send_bytes":     fmt.Sprint(byts),
		"snapshots":      fmt.Sprint(len(out.Snapshots)),
	}
	if !fields {
		return facts, nil
	}
	h := sha256.New()
	var b [8]byte
	for _, st := range append([]*solver.State{out.Parent}, out.Nests...) {
		for _, f := range [][]float64{st.H, st.HU, st.HV} {
			for _, v := range f {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("non-finite field value")
				}
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	facts["fields_sha256"] = hex.EncodeToString(h.Sum(nil))
	return facts, nil
}

// traffic totals the messages and payload bytes of a run.
func traffic(out *wrfsim.Output) (msgs, byts int) {
	for _, ph := range out.Phases {
		msgs += ph.Sum.SendCount
		byts += ph.Sum.SendBytes
	}
	return msgs, byts
}

func (f *funcRun) prepare() {}

func (f *funcRun) rep(t *tally) int {
	t.add(1, nil)
	t0 := time.Now()
	out, err := wrfsim.Run(f.cfg, f.opt)
	f.lastWt = time.Since(t0).Seconds()
	if err != nil {
		t.fail("%s: %v", f.name, err)
		return 1
	}
	// The cheap facts are compared every rep; the field hash once, in
	// finish, so hashing stays out of the timed interval.
	got, _ := funcFacts(out, false)
	for k, v := range got {
		if f.want[k] != v {
			t.fail("%s: %s = %s, first run had %s", f.name, k, v, f.want[k])
			return 1
		}
	}
	f.last = out
	return 1
}

func (f *funcRun) finish(t *tally) {
	got, err := funcFacts(f.last, true)
	if err != nil {
		t.fail("%s: %v", f.name, err)
		return
	}
	if got["fields_sha256"] != f.want["fields_sha256"] {
		t.fail("%s: fields differ between reps", f.name)
	}
	checkGolden(t, f.e, f.name, f.want)
}

// wrfsimPhases are the phase names of a functional run, with the
// per-nest phases folded into one.
var wrfsimPhases = []string{"init", "parent", "nest", "coupling", "output", "collect"}

func (f *funcRun) counts() map[string]float64 {
	msgs, byts := traffic(f.last)
	m := map[string]float64{
		"mpi.messages": float64(msgs), "mpi.bytes": float64(byts),
		"mpi.pool_hit_ratio": f.last.Pools.HitRate(), "mpi.pool_drops": float64(f.last.Pools.Drops),
		"wrfsim.sim_makespan_ms": f.last.MaxClock * 1e3, "wrfsim.avg_wait_ms": f.last.AvgWait * 1e3,
		// The flux-once kernel streams three fields in and three out
		// per cell: bytes computed from the array sizes, not measured.
		"solver.bytes_per_cell_computed": 6 * 8,
	}
	// Each phase's share of the run's wall clock on the average rank;
	// what is left is set-up: coupling plans, world start, collection.
	inPhases := 0.0
	for _, ph := range f.last.Phases {
		name := ph.Name
		if strings.HasPrefix(name, "nest:") {
			name = "nest"
		}
		share := ph.Sum.Wall / float64(f.opt.Ranks) / f.lastWt
		m["wrfsim.phase_share."+name] += share
		inPhases += share
	}
	m["wrfsim.setup_share"] = 1 - inPhases
	updates := f.cfg.Points()
	for _, c := range f.cfg.Children {
		updates += c.Points() * c.Ratio
	}
	m["solver.cell_updates"] = float64(updates * f.opt.Steps)
	return m
}

func (f *funcRun) close() {}

// ---- evaluation workload ----

type evalRun struct {
	e        *env
	exps     []experiments.Experiment
	want     string
	expWall  map[string]float64 // seconds per experiment, last cold rep
	coldWall float64            // seconds, last cold rep
	warmWall float64            // seconds, one pass over full caches (traced run only)
}

// evalTop5 are the five experiments that take longest from cold
// caches on the seed commit; their shares of a cold pass are reported.
var evalTop5 = []string{"fig8", "tab1", "fig1314", "periter", "nsib"}

func newEvalAll(e *env) (instance, error) {
	r := &evalRun{e: e, expWall: map[string]float64{}}
	if e.sz.evalIDs == nil {
		r.exps = experiments.All()
	}
	for _, id := range e.sz.evalIDs {
		x, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("eval-all: no experiment %q", id)
		}
		r.exps = append(r.exps, x)
	}
	resetProgramCaches()
	var err error
	if r.want, err = r.runAll(); err != nil { // warm-up rep, discarded
		return nil, err
	}
	return r, nil
}

// runAll is experiments.RunAll(1) over the selected experiments, one
// at a time so each gets a harness span: the SHA-256 of the
// concatenated tables is the answer.
func (r *evalRun) runAll() (string, error) {
	h := sha256.New()
	t0 := time.Now()
	root := r.e.tracer.Start(0, "experiments.RunAll", "experiments")
	defer root.End()
	for _, x := range r.exps {
		sp := r.e.tracer.Start(root.ID(), x.ID, "experiments")
		x0 := time.Now()
		o := experiments.RunConcurrent([]experiments.Experiment{x}, 1)[0]
		r.expWall[x.ID] = time.Since(x0).Seconds()
		sp.End()
		if o.Err != nil {
			return "", fmt.Errorf("%s: %w", x.ID, o.Err)
		}
		io.WriteString(h, o.Table.String())
	}
	r.coldWall = time.Since(t0).Seconds()
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (r *evalRun) prepare() { resetProgramCaches() }

func (r *evalRun) rep(t *tally) int {
	t.add(1, nil)
	got, err := r.runAll()
	if err != nil {
		t.fail("eval-all: %v", err)
	} else if got != r.want {
		t.fail("eval-all: tables differ between reps")
	}
	return 1
}

func (r *evalRun) finish(t *tally) {
	checkGolden(t, r.e, "eval-all", map[string]string{"tables_sha256": r.want})
	if r.e.tracer == nil {
		return
	}
	// What the model memo is worth: the same pass again, caches full.
	cold, walls := r.coldWall, maps.Clone(r.expWall)
	t0 := time.Now()
	if got, err := r.runAll(); err != nil || got != r.want {
		t.fail("eval-all: warm pass: tables differ (%v)", err)
	}
	r.warmWall = time.Since(t0).Seconds()
	r.coldWall, r.expWall = cold, walls
}

func (r *evalRun) counts() map[string]float64 {
	if r.warmWall == 0 {
		return nil
	}
	m := map[string]float64{"experiments.warm_share": r.warmWall / r.coldWall}
	for _, id := range evalTop5 {
		m["experiments.top5_share."+id] = r.expWall[id] / r.coldWall
	}
	return m
}

func (r *evalRun) close() {}
