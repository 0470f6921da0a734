// Package planserve turns the planning pipeline into a service:
// an HTTP/JSON server over driver.BuildPlan and driver.Compare with a
// shared bounded plan cache, singleflight deduplication of
// concurrent identical queries, a worker pool bounding concurrent
// cache-miss planning, per-request metrics, and graceful shutdown.
//
// Plans are immutable once built (driver.Plan's contract), so one
// cached plan is shared by every request that matches its canonical
// key; whether a response was served from cache is reported in the
// X-Plan-Cache header — never in the body — so cache-hit responses
// are byte-identical to cold-computed ones.
package planserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nestwrf/internal/alloc"
	"nestwrf/internal/driver"
	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/metrics"
	"nestwrf/internal/nest"
	"nestwrf/internal/telemetry"
)

// CacheHeader is the response header reporting "hit" or "miss".
const CacheHeader = "X-Plan-Cache"

// maxBodyBytes bounds request bodies; domain trees are tiny.
const maxBodyBytes = 1 << 20

// maxRanks bounds a request's rank count: above every Blue Gene/L and
// /P installation, and about a second of planning. Planning allocates
// per rank, so an unbounded count could exhaust memory, which no
// recover catches.
const maxRanks = 1 << 20

// DomainSpec is the JSON form of one simulation domain. Ratio, OffX
// and OffY apply to nested domains only.
type DomainSpec struct {
	Name     string       `json:"name,omitempty"`
	NX       int          `json:"nx"`
	NY       int          `json:"ny"`
	Ratio    int          `json:"ratio,omitempty"`
	OffX     int          `json:"off_x,omitempty"`
	OffY     int          `json:"off_y,omitempty"`
	Children []DomainSpec `json:"children,omitempty"`
}

// build converts the spec tree into a validated nest.Domain tree.
func (sp *DomainSpec) build() (*nest.Domain, error) {
	root := nest.Root(sp.Name, sp.NX, sp.NY)
	for i := range sp.Children {
		addChildSpec(root, &sp.Children[i])
	}
	if err := root.Validate(); err != nil {
		return nil, err
	}
	return root, nil
}

func addChildSpec(parent *nest.Domain, sp *DomainSpec) {
	c := parent.AddChild(sp.Name, sp.NX, sp.NY, sp.Ratio, sp.OffX, sp.OffY)
	for i := range sp.Children {
		addChildSpec(c, &sp.Children[i])
	}
}

// childName is the name of sp's i-th first-level nest.
func (sp *DomainSpec) childName(i int) string { return sp.Children[i].Name }

// PlanRequest is the JSON body of /v1/plan and /v1/compare.
type PlanRequest struct {
	// Machine selects the cost model: any spelling machine.Parse
	// accepts ("bgl", "bgp", "BlueGene/L", ...).
	Machine string `json:"machine"`
	Ranks   int    `json:"ranks"`
	// Strategy defaults to "concurrent"; Alloc to "predicted"; Mapping
	// to "multilevel". Any name the driver parsers accept, any case.
	Strategy string `json:"strategy,omitempty"`
	Alloc    string `json:"alloc,omitempty"`
	Mapping  string `json:"mapping,omitempty"`
	// IO selects the I/O mode ("pnetcdf"/"collective" or "split");
	// OutputEvery enables the I/O model when positive.
	IO           string `json:"io,omitempty"`
	OutputEvery  int    `json:"output_every,omitempty"`
	NoContention bool   `json:"no_contention,omitempty"`

	Domain DomainSpec `json:"domain"`
}

// options parses and defaults everything of the request but its
// domain tree, which only a cache miss builds (Server.lookup).
func (r *PlanRequest) options() (driver.Options, error) {
	m, err := machine.Parse(r.Machine)
	if err != nil {
		return driver.Options{}, fmt.Errorf("planserve: %w", err)
	}
	if r.Ranks > maxRanks {
		return driver.Options{}, fmt.Errorf("planserve: %d ranks exceeds the limit of %d", r.Ranks, maxRanks)
	}
	opt := driver.Options{
		Machine:          m,
		Ranks:            r.Ranks,
		Strategy:         driver.Concurrent,
		Alloc:            driver.AllocPredicted,
		MapKind:          driver.MapMultiLevel,
		OutputEverySteps: r.OutputEvery,
		NoContention:     r.NoContention,
	}
	if r.Strategy != "" {
		if opt.Strategy, err = driver.ParseStrategy(r.Strategy); err != nil {
			return opt, err
		}
	}
	if r.Alloc != "" {
		if opt.Alloc, err = driver.ParseAllocPolicy(r.Alloc); err != nil {
			return opt, err
		}
	}
	if r.Mapping != "" {
		if opt.MapKind, err = driver.ParseMapKind(r.Mapping); err != nil {
			return opt, err
		}
	}
	if r.IO != "" {
		if opt.IOMode, err = iosim.ParseMode(r.IO); err != nil {
			return opt, err
		}
	}
	return opt, nil
}

// SiblingPlan is one first-level nest's share of the plan.
type SiblingPlan struct {
	Name   string     `json:"name"`
	Weight float64    `json:"weight"`
	Rect   alloc.Rect `json:"rect"`
}

// PlanResponse is the JSON body of a /v1/plan response.
type PlanResponse struct {
	Machine  string `json:"machine"`
	Ranks    int    `json:"ranks"`
	Px       int    `json:"px"`
	Py       int    `json:"py"`
	Strategy string `json:"strategy"`
	Alloc    string `json:"alloc"`
	Mapping  string `json:"mapping"`
	// Siblings pair the request's first-level nest names with their
	// predicted weights and processor partitions.
	Siblings []SiblingPlan `json:"siblings"`
	// MappingQuality reports hop metrics per feasible mapping kind.
	MappingQuality map[string]driver.MappingQuality `json:"mapping_quality"`
	// Cost is the predicted per-iteration cost under the requested
	// strategy and mapping.
	Cost driver.Result `json:"cost"`
}

// CompareResponse is the JSON body of a /v1/compare response.
type CompareResponse struct {
	Machine             string        `json:"machine"`
	Ranks               int           `json:"ranks"`
	Default             driver.Result `json:"default"`
	Concurrent          driver.Result `json:"concurrent"`
	ImprovementPct      float64       `json:"improvement_pct"`
	TotalImprovementPct float64       `json:"total_improvement_pct"`
	WaitImprovementPct  float64       `json:"wait_improvement_pct"`
}

// errorResponse is the JSON body of any non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// Config configures a Server. The zero value gets sensible defaults.
type Config struct {
	// CacheSize bounds the shared plan cache (entries). Default 1024.
	CacheSize int
	// Workers bounds concurrent cache-miss planning. Default
	// GOMAXPROCS.
	Workers int
	// RequestTimeout bounds how long a request that misses the cache
	// waits for its plan; a hit never waits. Default 30s.
	RequestTimeout time.Duration
	// Metrics receives per-request instrumentation; nil disables it
	// (a nil registry is a valid no-op sink).
	Metrics *metrics.Registry
	// Tracer, when non-nil, records one serve-layer span per planning
	// request, with the plan-cache lookup (and, on a miss, the driver
	// run and its phases) nested under it. Nil keeps tracing off the
	// hot path entirely.
	Tracer *telemetry.Tracer
	// Log, when non-nil, receives one structured line per planning
	// request carrying the request's span ID, so log lines join
	// against exported trace dumps. Nil disables request logging.
	Log *slog.Logger
}

// Server is the planning service: share one across all connections.
// Every cache miss, plan or comparison, plans under one slot of sem, so
// at most Config.Workers driver calls run at once.
type Server struct {
	cfg    Config
	plans  *PlanCache
	sem    chan struct{}
	reg    *metrics.Registry
	tracer *telemetry.Tracer
	log    *slog.Logger
}

// New builds a Server from cfg (zero-value fields are defaulted).
func New(cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	s := &Server{
		cfg:    cfg,
		plans:  NewPlanCache(cfg.CacheSize),
		sem:    make(chan struct{}, cfg.Workers),
		reg:    cfg.Metrics,
		tracer: cfg.Tracer,
		log:    cfg.Log,
	}
	s.plans.Instrument(cfg.Metrics)
	return s
}

// Close shuts the plan cache; queued requests fail fast afterwards.
func (s *Server) Close() { s.plans.Close() }

// CacheStats reports the shared cache's occupancy and counters.
func (s *Server) CacheStats() (entries int, hits, misses, evictions uint64) {
	p := s.plans
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ll.Len(), p.hits, p.misses, p.evictions
}

// CacheJoins reports how many lookups waited on another request's
// in-flight computation (singleflight deduplication).
func (s *Server) CacheJoins() uint64 { return s.plans.Joins() }

// SaveSnapshot persists the server's plan cache to path atomically.
func (s *Server) SaveSnapshot(path string) (int, error) { return s.plans.SaveSnapshot(path) }

// LoadSnapshot warm-loads a snapshot into the server's plan cache,
// planning each key again; see PlanCache.LoadSnapshot for the rules.
// Call before serving traffic.
func (s *Server) LoadSnapshot(path string) (loaded, rejected int, err error) {
	return s.plans.LoadSnapshot(path)
}

// Handler returns the service mux: POST /v1/plan, POST /v1/compare,
// POST /v1/plan/batch, GET /v1/stats, GET /healthz, GET /metrics.
// It claims no /debug/ path, so a caller may mount expvar and pprof
// there.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(w, r, queryPlan)
	})
	mux.HandleFunc("POST /v1/compare", func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(w, r, queryCompare)
	})
	mux.HandleFunc("POST /v1/plan/batch", s.serveBatch)
	mux.HandleFunc("GET /v1/stats", s.serveStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = s.reg.Snapshot().WriteText(w)
	})
	return mux
}

// account wraps one planning request in the service's bookkeeping —
// request and in-flight counts, the serve-layer span, the latency
// histogram, the structured log line — around serve, which
// returns the HTTP status it wrote and the endpoint's own attribute
// (attr: the cache outcome of a query, the item count of a batch).
func (s *Server) account(endpoint, attr string, serve func(sp *telemetry.ActiveSpan) (code int, detail string)) {
	start := time.Now()
	s.reg.Gauge("planserve_inflight_requests").Add(1)
	sp := s.tracer.Start(0, "planserve."+endpoint, telemetry.LayerServe)
	sp.Annotate("endpoint", endpoint)
	code, detail := http.StatusInternalServerError, "" // what a panicking serve leaves behind
	defer func() {
		dur := time.Since(start).Seconds()
		s.reg.Gauge("planserve_inflight_requests").Add(-1)
		s.reg.Counter("planserve_requests_total",
			metrics.L("endpoint", endpoint), metrics.L("code", codeLabel(code))).Inc()
		s.reg.Histogram("planserve_request_seconds", metrics.LatencyBounds,
			metrics.L("endpoint", endpoint)).Observe(dur)
		if sp != nil {
			sp.Annotate("code", codeLabel(code))
			sp.Annotate(attr, detail)
			sp.End()
		}
		if s.log != nil {
			s.log.Info("request",
				"endpoint", endpoint, "code", code, "seconds", dur,
				attr, detail, "span", sp.ID().String())
		}
	}()
	code, detail = serve(sp)
}

// codeLabel is strconv.Itoa(code) without its allocation for the codes
// the handlers answer with, so recording a request's code allocates
// nothing, registry or not.
func codeLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusServiceUnavailable:
		return "503"
	case http.StatusGatewayTimeout:
		return "504"
	}
	return strconv.Itoa(code)
}

// serveQuery handles both planning endpoints: decode, options, then
// Server.lookup, which builds the domain tree only on a miss. A hit
// whose entry already holds a body encoded for the same child names
// writes those bytes; the first hit on an entry stores the body it
// encodes.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, q query) {
	s.account(q.name, "cache", func(sp *telemetry.ActiveSpan) (int, string) {
		var req PlanRequest
		if err := decodePlanRequest(w, r.Body, &req); err != nil {
			return writeError(w, http.StatusBadRequest, "bad request body: "+err.Error()), "none"
		}
		opt, err := req.options()
		if err != nil {
			return writeError(w, http.StatusBadRequest, err.Error()), "none"
		}

		// Thread the request span into the planning options, so a cache
		// miss's driver run (and its phases) nests under this request in
		// the exported trace. Neither field is part of the cache key.
		opt.Tracer = s.tracer
		opt.TraceParent = sp.ID()

		v, slot, out, err := s.lookup(r.Context(), q, &req, opt)
		if err != nil {
			return writeError(w, statusFor(err), err.Error()), out.String()
		}

		// The header keeps its original two-valued contract: joiners did
		// not get a resident entry, so they report "miss".
		header := "miss"
		if out == outcomeHit {
			header = "hit"
		}
		w.Header().Set(CacheHeader, header)
		spec := &req.Domain
		body := storedFor(slot, spec)
		if body == nil {
			var resp any
			if p, ok := v.(*driver.Plan); ok {
				resp = planResponse(spec, opt, p)
			} else {
				resp = compareResponse(spec, opt, v.(*driver.Comparison))
			}
			if body, err = encodeJSON(resp); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return http.StatusInternalServerError, out.String()
			}
			if slot != nil && slot.Load() == nil {
				slot.CompareAndSwap(nil, &storedBody{names: childNames(spec), body: body})
			}
		}
		writeBody(w, http.StatusOK, body)
		return http.StatusOK, out.String()
	})
}

// storedBody is a planning response encoded once from a resident cache
// entry: the exact bytes of every hit on that entry whose request gives
// its first-level nests these names. The entry's key pins everything
// else the body holds (machine, options, geometry), and no response
// names the root or deeper nests.
type storedBody struct {
	names []string
	body  []byte
}

// storedFor returns the body in slot when it was encoded for spec's
// first-level names, else nil. A nil slot (a miss or a join) holds
// nothing. The key pins the geometry, so a stored body has one name
// per child of spec.
func storedFor(slot *atomic.Pointer[storedBody], spec *DomainSpec) []byte {
	if slot == nil {
		return nil
	}
	sb := slot.Load()
	if sb == nil {
		return nil
	}
	for i := range spec.Children {
		if sb.names[i] != spec.Children[i].Name {
			return nil
		}
	}
	return sb.body
}

// childNames lists spec's first-level nest names.
func childNames(spec *DomainSpec) []string {
	names := make([]string, len(spec.Children))
	for i := range spec.Children {
		names[i] = spec.Children[i].Name
	}
	return names
}

// lookup answers one decoded request from the shared cache, keyed by
// appendRequestKey. A resident entry is served before any domain tree
// is built or deadline armed: invalid requests are never inserted (nor
// loaded from a snapshot), and whether a tree is valid depends only on
// its geometry, which the key holds, so a hit implies a valid request.
// Only that resident hit returns the entry's stored-body slot. A
// non-resident key builds and validates the tree (outcomeNone when that
// fails), arms the request deadline on ctx and enters PlanCache.lookup,
// where a miss plans under a worker-pool slot (Server.build); a key
// inserted meanwhile is a hit there, encoded afresh. Every outcome but
// outcomeNone counts once in planserve_cache_total.
func (s *Server) lookup(ctx context.Context, q query, req *PlanRequest, opt driver.Options) (any, *atomic.Pointer[storedBody], cacheOutcome, error) {
	var buf [keyBuf]byte
	key := appendRequestKey(buf[:0], q.prefix, opt, &req.Domain)
	sp := startLookupSpan(opt, q.span)
	if e := s.plans.resident(key); e != nil {
		endLookupSpan(sp, outcomeHit, nil)
		s.countOutcome(q, outcomeHit)
		return e.val, &e.body, outcomeHit, nil
	}
	cfg, err := req.Domain.build()
	if err != nil {
		endLookupSpan(sp, outcomeNone, err)
		return nil, nil, outcomeNone, err
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	v, out, err := s.plans.lookup(ctx, sp, key, opt, func(opt driver.Options) (any, error) {
		return s.build(ctx, q, cfg, opt)
	})
	s.countOutcome(q, out)
	return v, nil, out, err
}

// countOutcome adds one lookup to the per-endpoint outcome counter.
func (s *Server) countOutcome(q query, out cacheOutcome) {
	s.reg.Counter("planserve_cache_total",
		metrics.L("endpoint", q.name), metrics.L("result", out.String())).Inc()
}

// build computes one miss of kind q under a worker-pool slot, waiting
// for the slot no longer than ctx allows; singleflight joiners wait on
// the flight, not the pool.
func (s *Server) build(ctx context.Context, q query, cfg *nest.Domain, opt driver.Options) (any, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()
	return q.compute(cfg, opt)
}

// maxBatchBodyBytes bounds /v1/plan/batch bodies; maxBatchItems bounds
// the requests per batch call.
const (
	maxBatchBodyBytes = 8 << 20
	maxBatchItems     = 256
)

// BatchRequest is the JSON body of /v1/plan/batch: a list of plan
// queries answered in one round trip. Each item is a /v1/plan lookup of
// its own, so distinct cold items plan in parallel, each miss under its
// own worker-pool slot.
type BatchRequest struct {
	Requests []PlanRequest `json:"requests"`
}

// BatchItemResponse is one query's outcome, in request order. Exactly
// one of Plan and Error is set; Cache reports the lookup outcome
// ("hit", "miss", "join", or "none" when the request never resolved).
type BatchItemResponse struct {
	Plan  *PlanResponse `json:"plan,omitempty"`
	Error string        `json:"error,omitempty"`
	Cache string        `json:"cache"`
}

// BatchResponse is the JSON body of a /v1/plan/batch response.
type BatchResponse struct {
	Responses []BatchItemResponse `json:"responses"`
}

// serveBatch handles POST /v1/plan/batch: every item runs through the
// same cache lookup as /v1/plan, concurrently, each miss under its own
// request deadline, and the response keeps request order. Item failures (unknown machine, invalid domain) are
// reported inline so one bad query cannot fail the whole batch.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request) {
	s.account("plan_batch", "items", func(sp *telemetry.ActiveSpan) (int, string) {
		var req BatchRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return writeError(w, http.StatusBadRequest, "bad request body: "+err.Error()), "0"
		}
		if len(req.Requests) == 0 {
			return writeError(w, http.StatusBadRequest, "empty batch"), "0"
		}
		if len(req.Requests) > maxBatchItems {
			return writeError(w, http.StatusBadRequest,
				fmt.Sprintf("batch of %d requests exceeds the %d limit", len(req.Requests), maxBatchItems)), "0"
		}

		resp := BatchResponse{Responses: make([]BatchItemResponse, len(req.Requests))}
		var wg sync.WaitGroup
		for i := range req.Requests {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				item := &req.Requests[i]
				opt, err := item.options()
				if err != nil {
					resp.Responses[i] = BatchItemResponse{Error: err.Error(), Cache: "none"}
					return
				}
				opt.Tracer = s.tracer
				opt.TraceParent = sp.ID()
				v, _, out, err := s.lookup(r.Context(), queryPlan, item, opt)
				if err != nil {
					resp.Responses[i] = BatchItemResponse{Error: err.Error(), Cache: out.String()}
					return
				}
				resp.Responses[i] = BatchItemResponse{Plan: planResponse(&item.Domain, opt, v.(*driver.Plan)), Cache: out.String()}
			}(i)
		}
		wg.Wait()
		writeJSON(w, http.StatusOK, &resp)
		return http.StatusOK, strconv.Itoa(len(req.Requests))
	})
}

// planResponse marshals a cached (name-free) plan back under the
// request's own domain names, in the sibling list and the cost alike.
func planResponse(spec *DomainSpec, opt driver.Options, p *driver.Plan) *PlanResponse {
	resp := &PlanResponse{
		Machine: opt.Machine.Name, Ranks: p.Ranks, Px: p.Px, Py: p.Py,
		Strategy: p.Strategy.String(), Alloc: p.Alloc.String(), Mapping: p.MapKind.String(),
		MappingQuality: p.Mapping,
		Cost:           withNames(p.Cost, spec.childName),
	}
	for i := range spec.Children {
		sib := SiblingPlan{Name: spec.Children[i].Name}
		if i < len(p.Weights) {
			sib.Weight = p.Weights[i]
		}
		if i < len(p.Rects) {
			sib.Rect = p.Rects[i]
		}
		resp.Siblings = append(resp.Siblings, sib)
	}
	return resp
}

// compareResponse marshals a cached comparison back under the
// request's own domain names.
func compareResponse(spec *DomainSpec, opt driver.Options, c *driver.Comparison) *CompareResponse {
	return &CompareResponse{
		Machine: opt.Machine.Name, Ranks: opt.Ranks,
		Default:             withNames(c.Default, spec.childName),
		Concurrent:          withNames(c.Concurrent, spec.childName),
		ImprovementPct:      c.ImprovementPct,
		TotalImprovementPct: c.TotalImprovementPct,
		WaitImprovementPct:  c.WaitImprovementPct,
	}
}

// serveStats reports cache occupancy and hit/miss counters as JSON.
func (s *Server) serveStats(w http.ResponseWriter, _ *http.Request) {
	entries, hits, misses, evictions := s.CacheStats()
	warmLoaded, warmRejected, warmEvicted := s.plans.WarmStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"entries": entries, "hits": hits, "misses": misses, "evictions": evictions,
		"joins":         s.CacheJoins(),
		"warm_loaded":   warmLoaded,
		"warm_rejected": warmRejected,
		"warm_evicted":  warmEvicted,
	})
}

// statusFor maps a planning error to an HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	case errors.Is(err, ErrCacheClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// writeError writes msg as the JSON error body and returns code.
func writeError(w http.ResponseWriter, code int, msg string) int {
	writeJSON(w, code, errorResponse{Error: msg})
	return code
}

// writeJSON marshals v and writes it with the given status. Marshal
// errors cannot occur for the fixed response types, but are reported
// defensively.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, code, body)
}

// encodeJSON is v's response encoding: json.Encoder's, newline
// included.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// writeBody writes an encoded JSON body with the given status.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}
