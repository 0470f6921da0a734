package ensemble

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nestwrf/internal/campaign"
	"nestwrf/internal/driver"
	"nestwrf/internal/metrics"
	"nestwrf/internal/nest"
	"nestwrf/internal/planserve"
	"nestwrf/internal/stats"
	"nestwrf/internal/telemetry"
)

// Errors.
var (
	// ErrCheckpointMismatch reports a checkpoint written by a different
	// campaign spec: resuming it would mix incompatible aggregates.
	ErrCheckpointMismatch = errors.New("ensemble: checkpoint spec does not match")
	// ErrBadCheckpoint reports an unreadable, wrong-version or
	// malformed file.
	ErrBadCheckpoint = errors.New("ensemble: bad checkpoint")
)

// checkpointVersion tags the on-disk format.
const checkpointVersion = "nestwrf/ensemble-checkpoint/v1"

// improvementBounds are the ensemble_improvement_pct buckets: 5 pp
// wide from -20 % to 60 %. The exact gain quantiles are the
// aggregates' (Progress, Summary).
var improvementBounds = []float64{
	-20, -15, -10, -5, 0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60,
}

// MemberResult is the per-member outcome that feeds the aggregates:
// campaign wall time under the default and concurrent strategies (for
// storyline members: the whole storyline; for single-configuration
// members: one iteration) and the relative gain.
type MemberResult struct {
	ID             int     `json:"id"`
	Kind           string  `json:"kind"`
	Default        float64 `json:"default"`
	Concurrent     float64 `json:"concurrent"`
	ImprovementPct float64 `json:"improvement_pct"`
}

// Aggregates holds the streaming statistics a campaign maintains in
// place of per-member retention: online mean/variance/extrema plus P²
// p10/p50/p90 estimates for the default time, the concurrent time and
// the improvement. Memory is O(1) regardless of campaign size, and the
// whole struct round-trips through JSON bit-exactly for checkpoints.
type Aggregates struct {
	DefaultTime    *stats.Stream `json:"default_time"`
	ConcurrentTime *stats.Stream `json:"concurrent_time"`
	ImprovementPct *stats.Stream `json:"improvement_pct"`
}

// NewAggregates returns empty accumulators tracking p10/p50/p90.
func NewAggregates() *Aggregates {
	return &Aggregates{
		DefaultTime:    stats.NewStream(0.1, 0.5, 0.9),
		ConcurrentTime: stats.NewStream(0.1, 0.5, 0.9),
		ImprovementPct: stats.NewStream(0.1, 0.5, 0.9),
	}
}

// Ingest commits one member. Aggregates are order-sensitive (P² marker
// positions depend on arrival order), so the engine always ingests in
// member-ID order regardless of completion order.
func (a *Aggregates) Ingest(mr MemberResult) {
	a.DefaultTime.Add(mr.Default)
	a.ConcurrentTime.Add(mr.Concurrent)
	a.ImprovementPct.Add(mr.ImprovementPct)
}

// Checkpoint is the campaign state written to disk: after ingesting
// members [0, Committed) in ID order, the aggregates are exactly these.
// A resumed run restores them and continues from member Committed, so
// the final aggregates equal an uninterrupted run's bit for bit.
type Checkpoint struct {
	Version    string      `json:"version"`
	Spec       Spec        `json:"spec"`
	Committed  int         `json:"committed"`
	Aggregates *Aggregates `json:"aggregates"`
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	return decodeCheckpoint(raw)
}

// decodeCheckpoint parses a checkpoint file's bytes and rejects a wrong
// version or aggregates that Ingest could not take.
func decodeCheckpoint(raw []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: version %q, want %q", ErrBadCheckpoint, cp.Version, checkpointVersion)
	}
	if cp.Aggregates == nil || cp.Committed < 0 {
		return nil, fmt.Errorf("%w: missing aggregates", ErrBadCheckpoint)
	}
	if !cp.Aggregates.valid() {
		return nil, fmt.Errorf("%w: malformed aggregates", ErrBadCheckpoint)
	}
	return &cp, nil
}

// valid reports whether every stream and quantile estimator is present
// with a non-negative count: what Ingest needs to neither dereference
// nil nor index the estimators' initial buffers out of range.
func (a *Aggregates) valid() bool {
	for _, s := range []*stats.Stream{a.DefaultTime, a.ConcurrentTime, a.ImprovementPct} {
		if s == nil || s.Count < 0 {
			return false
		}
		for _, q := range s.Quantiles {
			if q == nil || q.Count < 0 {
				return false
			}
		}
	}
	return true
}

// save writes the checkpoint atomically (temp file + rename in the
// destination directory), so a kill mid-write leaves the previous
// checkpoint intact.
func (cp *Checkpoint) save(path string) error {
	raw, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ensemble-ckpt-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(raw)
	if err == nil {
		err = tmp.Chmod(0o644) // CreateTemp's 0600 would lock other readers out
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Summary reports a finished (or stopped) campaign run.
type Summary struct {
	Spec Spec `json:"spec"`
	// Committed is the total number of members ingested into the
	// aggregates, including those restored from a checkpoint.
	Committed int `json:"committed"`
	// ResumedFrom is the checkpoint frontier this run started at.
	ResumedFrom int `json:"resumed_from"`
	// Stopped is true when StopAfter ended the run before the campaign
	// completed (the checkpoint, if configured, holds the frontier).
	Stopped    bool        `json:"stopped"`
	Aggregates *Aggregates `json:"aggregates"`
	// CacheHits/CacheMisses are the plan cache's cumulative counters
	// (the cache may be shared across runs). Misses count distinct
	// geometries planned.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// ElapsedSec and MembersPerSec measure this run's wall clock over
	// the members it executed (not checkpoint-restored ones).
	ElapsedSec    float64 `json:"elapsed_sec"`
	MembersPerSec float64 `json:"members_per_sec"`
}

// Engine executes a campaign: a pool of workers realizes and simulates
// members through a shared plan cache, and one committer folds their
// results into the streaming aggregates strictly in member-ID order,
// so the aggregates do not depend on scheduling. At most 4*Workers
// members are in flight, and every worker has returned before Run does.
type Engine struct {
	Spec Spec
	// Workers is the pool size. Default: GOMAXPROCS.
	Workers int
	// Cache is the shared plan cache. Nil allocates a private one for
	// the run. Every phase run of every member is looked up in it: a
	// miss plans on the worker that found it, and concurrent identical
	// misses share one computation via singleflight.
	Cache *planserve.PlanCache
	// Metrics, when non-nil, receives progress instrumentation.
	Metrics *metrics.Registry
	// CheckpointPath enables kill/resume: the engine resumes from the
	// file when it exists, and writes it periodically and whenever Run
	// returns, unless a write has failed.
	CheckpointPath string
	// CheckpointEvery is the commit interval between periodic
	// checkpoint writes. Default: 64.
	CheckpointEvery int
	// StopAfter, when positive, stops the run after that many commits
	// this run (simulating a kill for resume testing); no member past
	// them is started. The summary has Stopped=true and a nil error.
	StopAfter int
	// Tracer, when non-nil, records one campaign-layer span for the
	// run, with member-layer spans for head-sampled members (every
	// tracer.SampleEvery-th member ID) wrapping their plan-cache
	// lookups and driver runs. Unsampled members skip tracing
	// entirely, so 10k-member campaigns stay O(window) in span count
	// per sampled member. Nil keeps tracing off the hot path.
	Tracer *telemetry.Tracer
	// Log, when non-nil, receives structured campaign lifecycle lines
	// (start, a failed member, completion) and one line per sampled
	// member, each carrying the campaign/member span IDs that join
	// against exported trace dumps.
	Log *slog.Logger

	live atomic.Pointer[liveRun] // the latest run's record; nil before Run
}

// Progress is a live snapshot of a running (or finished) campaign:
// how far it has advanced, its throughput and ETA, the streaming gain
// aggregates so far, and the plan cache's effectiveness.
type Progress struct {
	// Done/Total count committed members (Done includes ResumedFrom
	// checkpoint-restored ones).
	Done        int `json:"done"`
	Total       int `json:"total"`
	ResumedFrom int `json:"resumed_from"`
	// ElapsedSec covers this run; MembersPerSec covers members this
	// run executed; EtaSec extrapolates the remainder at that rate
	// (zero until the first commit).
	ElapsedSec    float64 `json:"elapsed_sec"`
	MembersPerSec float64 `json:"members_per_sec"`
	EtaSec        float64 `json:"eta_sec"`
	// Gain summarizes the improvement-percent stream so far.
	GainMean float64 `json:"gain_mean"`
	GainP10  float64 `json:"gain_p10"`
	GainP50  float64 `json:"gain_p50"`
	GainP90  float64 `json:"gain_p90"`
	// Cache effectiveness (cumulative over the shared cache).
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Progress reports the campaign's live state. Before Run has started
// it returns a zero Progress with ok=false. Safe for concurrent use
// with a running campaign: the /debug/progress endpoint polls it.
func (e *Engine) Progress() (Progress, bool) {
	l := e.live.Load()
	if l == nil {
		return Progress{}, false
	}
	_, p := l.report()
	return p, true
}

// liveRun is one run's record. The committer advances done and the
// aggregates under mu; report reads both the Summary Run returns and
// every Progress from it.
type liveRun struct {
	mu    sync.Mutex
	spec  Spec
	from  int // the checkpoint frontier the run resumed at
	done  int // members committed, the restored ones included
	begin time.Time
	agg   *Aggregates
	cache *planserve.PlanCache
}

// report reads the run as it stands. A run that returns no error ends
// short of the campaign only through StopAfter, so Stopped is
// done < Members.
func (l *liveRun) report() (*Summary, Progress) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sum := &Summary{Spec: l.spec, Committed: l.done, ResumedFrom: l.from,
		Stopped: l.done < l.spec.Members, Aggregates: l.agg,
		ElapsedSec: time.Since(l.begin).Seconds()}
	sum.CacheHits, sum.CacheMisses, _ = l.cache.Stats()
	if ran := l.done - l.from; ran > 0 && sum.ElapsedSec > 0 {
		sum.MembersPerSec = float64(ran) / sum.ElapsedSec
	}
	p := Progress{Done: l.done, Total: l.spec.Members, ResumedFrom: l.from,
		ElapsedSec: sum.ElapsedSec, MembersPerSec: sum.MembersPerSec,
		CacheHits: sum.CacheHits, CacheMisses: sum.CacheMisses}
	if p.MembersPerSec > 0 {
		p.EtaSec = float64(p.Total-p.Done) / p.MembersPerSec
	}
	if g := l.agg.ImprovementPct; g.Count > 0 {
		p.GainMean = g.Mean
		p.GainP10, _ = g.Quantile(0.1)
		p.GainP50, _ = g.Quantile(0.5)
		p.GainP90, _ = g.Quantile(0.9)
	}
	if lookups := p.CacheHits + p.CacheMisses; lookups > 0 {
		p.CacheHitRate = float64(p.CacheHits) / float64(lookups)
	}
	return sum, p
}

// outcome is one member's result, left in its ring cell for the
// committer.
type outcome struct {
	res MemberResult
	err error
}

// Run executes the campaign until completion, StopAfter, a member
// error, a failed checkpoint write or context cancellation. Whichever
// ends it, its workers have returned and, unless a write failed, the
// checkpoint holds the committed frontier.
func (e *Engine) Run(ctx context.Context) (*Summary, error) {
	spec := e.Spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	window := 4 * workers
	checkpointEvery := e.CheckpointEvery
	if checkpointEvery <= 0 {
		checkpointEvery = 64
	}

	agg := NewAggregates()
	start := 0
	if e.CheckpointPath != "" {
		if _, err := os.Stat(e.CheckpointPath); err == nil {
			cp, err := LoadCheckpoint(e.CheckpointPath)
			if err != nil {
				return nil, err
			}
			if cp.Spec != spec {
				return nil, fmt.Errorf("%w: checkpoint %+v, campaign %+v", ErrCheckpointMismatch, cp.Spec, spec)
			}
			agg = cp.Aggregates
			start = cp.Committed
		}
	}

	cache := e.Cache
	if cache == nil {
		cache = planserve.NewPlanCache(4096)
		defer cache.Close()
	}

	committedGauge := e.Metrics.Gauge("ensemble_committed")
	committedGauge.Set(float64(start))
	live := &liveRun{spec: spec, from: start, done: start, begin: time.Now(), agg: agg, cache: cache}
	e.live.Store(live)

	next := start
	var firstErr error

	// The campaign span is the root every sampled member parents
	// under; its ID also appears in every campaign log line.
	csp := e.Tracer.Start(0, "campaign", telemetry.LayerCampaign)
	campID := csp.ID()
	if csp != nil {
		csp.Annotate("members", strconv.Itoa(spec.Members))
		csp.Annotate("resumed_from", strconv.Itoa(start))
		csp.Annotate("workers", strconv.Itoa(workers))
		defer func() {
			csp.Annotate("committed", strconv.Itoa(next))
			if firstErr != nil {
				csp.Annotate("error", firstErr.Error())
			}
			csp.End()
		}()
	}
	if e.Log != nil {
		e.Log.Info("campaign start",
			"members", spec.Members, "resumed_from", start,
			"workers", workers, "campaign", campID.String())
	}

	// end is the first member this run does not start.
	end := spec.Members
	if e.StopAfter > 0 {
		end = min(end, start+e.StopAfter)
	}
	writeFailed := false
	if start < end {
		runCtx, cancel := context.WithCancel(ctx)
		// A worker takes one of window tokens before it claims the next
		// member ID, and the committer hands one back per commit, so the
		// IDs in flight always lie in [next, next+window) and no two of
		// them share a ring cell.
		tokens := make(chan struct{}, window)
		ring := make([]chan outcome, window)
		for i := range ring {
			ring[i] = make(chan outcome, 1)
		}
		var claimed atomic.Int64
		claimed.Store(int64(start))
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case tokens <- struct{}{}:
					case <-runCtx.Done():
						return
					}
					id := int(claimed.Add(1) - 1)
					if id >= end || runCtx.Err() != nil {
						return
					}
					mr, err := e.traceMember(runCtx, spec, cache, id, campID)
					ring[id%window] <- outcome{mr, err} // the cell's last ID, id-window, is committed
				}
			}()
		}

		for next < end {
			var o outcome
			select {
			case o = <-ring[next%window]:
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				firstErr = fmt.Errorf("ensemble: %w", context.Cause(ctx))
				break
			}
			if o.err != nil {
				firstErr = fmt.Errorf("ensemble: member %d: %w", next, o.err)
				if e.Log != nil {
					e.Log.Error("member failed",
						"member", next, "error", o.err, "campaign", campID.String())
				}
				break
			}
			// Ingest under the record's lock so Progress() can snapshot
			// the streaming aggregates mid-run without racing the P²
			// marker updates.
			live.mu.Lock()
			agg.Ingest(o.res)
			next++
			live.done = next
			live.mu.Unlock()
			<-tokens
			e.Metrics.Counter("ensemble_members_total", metrics.L("kind", o.res.Kind)).Inc()
			// In commit order, like the aggregates: the histogram's sum
			// then does not depend on scheduling.
			e.Metrics.Histogram("ensemble_improvement_pct", improvementBounds).Observe(o.res.ImprovementPct)
			committedGauge.Set(float64(next))
			if e.CheckpointPath != "" && (next-start)%checkpointEvery == 0 && next < end {
				if err := e.writeCheckpoint(spec, next, agg); err != nil {
					firstErr, writeFailed = err, true
					break
				}
			}
		}
		cancel()
		wg.Wait()
	}

	if e.CheckpointPath != "" && !writeFailed {
		if err := e.writeCheckpoint(spec, next, agg); err != nil {
			firstErr = errors.Join(firstErr, err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	sum, _ := live.report()
	if e.Log != nil {
		e.Log.Info("campaign done",
			"committed", next, "stopped", sum.Stopped,
			"members_per_sec", sum.MembersPerSec,
			"cache_hits", sum.CacheHits, "cache_misses", sum.CacheMisses,
			"campaign", campID.String())
	}
	return sum, nil
}

// traceMember runs member id on a worker: it times the member into
// ensemble_member_seconds and, for a head-sampled member, wraps it in a
// member-layer span under the campaign span; the rest run with tracing
// fully off.
func (e *Engine) traceMember(ctx context.Context, spec Spec, cache *planserve.PlanCache, id int, campID telemetry.SpanID) (MemberResult, error) {
	var msp *telemetry.ActiveSpan
	if e.Tracer.Recording() && e.Tracer.Sampled(id) {
		msp = e.Tracer.Start(campID, "member", telemetry.LayerMember)
		msp.Annotate("member", strconv.Itoa(id))
	}
	t0 := time.Now()
	mr, err := e.runMember(ctx, spec, cache, id, msp.ID())
	dur := time.Since(t0).Seconds()
	e.Metrics.Histogram("ensemble_member_seconds", metrics.LatencyBounds, metrics.L("kind", mr.Kind)).Observe(dur)
	if msp != nil {
		msp.Annotate("kind", mr.Kind)
		if err != nil {
			msp.Annotate("error", err.Error())
		} else {
			msp.Annotate("improvement_pct",
				strconv.FormatFloat(mr.ImprovementPct, 'g', -1, 64))
		}
		msp.End()
		if e.Log != nil {
			e.Log.Info("member sampled",
				"member", id, "kind", mr.Kind, "seconds", dur,
				"campaign", campID.String(), "span", msp.ID().String())
		}
	}
	return mr, err
}

func (e *Engine) writeCheckpoint(spec Spec, committed int, agg *Aggregates) error {
	cp := &Checkpoint{Version: checkpointVersion, Spec: spec, Committed: committed, Aggregates: agg}
	if err := cp.save(e.CheckpointPath); err != nil {
		return fmt.Errorf("ensemble: checkpoint: %w", err)
	}
	e.Metrics.Counter("ensemble_checkpoints_total").Inc()
	return nil
}

// runMember realizes and simulates one member. Storyline members run
// the full multi-phase campaign comparison; single-configuration
// members compare one sequential against one concurrent iteration. All
// driver runs go through the shared plan cache. parent, when nonzero,
// is the member span every cache lookup (and miss computation) of
// this member parents under; zero leaves the member untraced.
func (e *Engine) runMember(ctx context.Context, spec Spec, cache *planserve.PlanCache, id int, parent telemetry.SpanID) (MemberResult, error) {
	m, err := spec.Member(id)
	if err != nil {
		return MemberResult{}, err
	}
	run := func(cfg *nest.Domain, opt driver.Options) (driver.Result, error) {
		if parent != 0 {
			opt.Tracer = e.Tracer
			opt.TraceParent = parent
		}
		res, _, err := cache.Run(ctx, cfg, opt)
		return res, err
	}
	mr := MemberResult{ID: id, Kind: m.Kind}
	if len(m.Phases) > 0 {
		cres, err := campaign.RunWith(m.Phases, m.Opt, run)
		if err != nil {
			return mr, err
		}
		mr.Default = cres.TotalDefault
		mr.Concurrent = cres.TotalConcurrent
		mr.ImprovementPct = cres.ImprovementPct()
		return mr, nil
	}
	cmp, err := driver.RunBoth(m.Config, m.Opt, run)
	if err != nil {
		return mr, err
	}
	mr.Default = cmp.Default.IterTime
	mr.Concurrent = cmp.Concurrent.IterTime
	mr.ImprovementPct = cmp.ImprovementPct
	return mr, nil
}
