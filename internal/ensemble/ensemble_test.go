package ensemble

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nestwrf/internal/metrics"
	"nestwrf/internal/planserve"
	"nestwrf/internal/telemetry"
)

// sharedCache is reused across tests: member geometries are drawn from
// the same quantized jitter space, so later tests run cache-warm.
var sharedCache = planserve.NewPlanCache(8192)

func TestSpecValidation(t *testing.T) {
	good := Spec{Members: 10}.WithDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("defaulted spec invalid: %v", err)
	}
	cases := []Spec{
		{Members: 0},
		{Members: 10, Generator: "chaos"},
		{Members: 10, Machine: "summit"},
		{Members: 10, Ranks: -1},
		{Members: 10, StepsPerPhase: -5},
	}
	for i, c := range cases {
		s := c.WithDefaults()
		if c.Generator != "" {
			s.Generator = c.Generator
		}
		if c.Machine != "" {
			s.Machine = c.Machine
		}
		if c.Ranks != 0 {
			s.Ranks = c.Ranks
		}
		if c.StepsPerPhase != 0 {
			s.StepsPerPhase = c.StepsPerPhase
		}
		if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d (%+v): err=%v, want ErrBadSpec", i, s, err)
		}
	}
	if _, err := good.Member(-1); !errors.Is(err, ErrBadSpec) {
		t.Errorf("Member(-1): %v", err)
	}
	if _, err := good.Member(good.Members); !errors.Is(err, ErrBadSpec) {
		t.Errorf("Member(len): %v", err)
	}
}

// Every generator must produce members that validate, over a large ID
// range: the clamped quantized samplers may never emit a nest that
// overflows its parent.
func TestGeneratorsProduceValidMembers(t *testing.T) {
	for _, gen := range Generators() {
		spec := Spec{Generator: gen, Members: 300, Seed: 42}.WithDefaults()
		kinds := map[string]int{}
		for id := 0; id < spec.Members; id++ {
			m, err := spec.Member(id)
			if err != nil {
				t.Fatalf("%s member %d: %v", gen, id, err)
			}
			kinds[m.Kind]++
			switch m.Kind {
			case GenSeason:
				if len(m.Phases) != 5 {
					t.Fatalf("%s member %d: %d phases, want 5", gen, id, len(m.Phases))
				}
			case GenHierarchy, GenSweep:
				if m.Config == nil {
					t.Fatalf("%s member %d: nil config", gen, id)
				}
			}
			if err := m.Opt.Validate(); err != nil {
				t.Fatalf("%s member %d options: %v", gen, id, err)
			}
		}
		if gen == GenMixed && len(kinds) != 3 {
			t.Errorf("mixed produced kinds %v, want all three", kinds)
		}
	}
}

// Hierarchy members must include genuinely 3-level configurations
// (coarse -> regional -> local) somewhere in the sampled population.
func TestHierarchyReachesThreeLevels(t *testing.T) {
	spec := Spec{Generator: GenHierarchy, Members: 50, Seed: 7}.WithDefaults()
	deep := 0
	for id := 0; id < spec.Members; id++ {
		m, err := spec.Member(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range m.Config.Children {
			if len(reg.Children) > 0 {
				deep++
			}
		}
	}
	if deep == 0 {
		t.Error("no 3-level hierarchy in 50 sampled members")
	}
}

// Member realization is a pure function of (Spec, ID): any order, any
// repetition, same scenario.
func TestMembersDeterministic(t *testing.T) {
	spec := Spec{Generator: GenMixed, Members: 30, Seed: 99}.WithDefaults()
	for _, id := range []int{29, 3, 17, 3, 0, 29} {
		a, err := spec.Member(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.Member(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("member %d not deterministic", id)
		}
	}
}

func aggJSON(t *testing.T, a *Aggregates) string {
	t.Helper()
	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// Two cold runs of the same spec — different worker counts, so
// completion order differs — must produce identical aggregates (the
// in-order committer makes aggregation independent of scheduling) and
// do the same planning: one miss per distinct plan, and as many cache
// lookups in total. A lookup that waits on another worker's in-flight
// plan counts as neither hit nor miss, so the 8-worker side adds Joins.
func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := Spec{Generator: GenMixed, Members: 45, Seed: 1, Ranks: 512, StepsPerPhase: 10}
	ctx := context.Background()
	cold := func(workers int) (*Summary, uint64) {
		cache := planserve.NewPlanCache(8192)
		defer cache.Close()
		sum, err := (&Engine{Spec: spec, Workers: workers, Cache: cache}).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return sum, cache.Joins()
	}
	one, oneJoins := cold(1)
	many, manyJoins := cold(8)
	if one.Committed != 45 || many.Committed != 45 {
		t.Fatalf("committed %d / %d, want 45", one.Committed, many.Committed)
	}
	if a, b := aggJSON(t, one.Aggregates), aggJSON(t, many.Aggregates); a != b {
		t.Errorf("aggregates depend on worker count:\n1 worker: %s\n8 workers: %s", a, b)
	}
	if one.Aggregates.ImprovementPct.Count != 45 {
		t.Errorf("improvement stream count %d, want 45", one.Aggregates.ImprovementPct.Count)
	}
	if one.CacheMisses != many.CacheMisses {
		t.Errorf("distinct plans: 1 worker %d, 8 workers %d", one.CacheMisses, many.CacheMisses)
	}
	if oneJoins != 0 {
		t.Errorf("1 worker joined %d in-flight plans", oneJoins)
	}
	if a, b := one.CacheHits+one.CacheMisses, many.CacheHits+many.CacheMisses+manyJoins; a != b {
		t.Errorf("cache lookups: 1 worker %d, 8 workers %d", a, b)
	}
}

// Kill/resume: a run stopped mid-campaign and resumed from its
// checkpoint must reproduce the uninterrupted run's aggregates bit for
// bit, without recomputing finished members.
func TestCheckpointResumeBitIdentity(t *testing.T) {
	spec := Spec{Generator: GenMixed, Members: 45, Seed: 2, Ranks: 512, StepsPerPhase: 10}
	ctx := context.Background()

	full, err := (&Engine{Spec: spec, Workers: 6, Cache: sharedCache}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	reg := metrics.NewRegistry()
	stoppedRun, err := (&Engine{
		Spec: spec, Workers: 6, Cache: sharedCache, Metrics: reg,
		CheckpointPath: path, CheckpointEvery: 7, StopAfter: 17,
	}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stoppedRun.Stopped {
		t.Fatal("StopAfter run not marked Stopped")
	}
	if stoppedRun.Committed != 17 {
		t.Fatalf("stopped run committed %d, want 17", stoppedRun.Committed)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Committed != 17 {
		t.Fatalf("checkpoint frontier %d, want 17", cp.Committed)
	}

	resumed, err := (&Engine{
		Spec: spec, Workers: 6, Cache: sharedCache, CheckpointPath: path,
	}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ResumedFrom != 17 {
		t.Fatalf("resumed from %d, want 17", resumed.ResumedFrom)
	}
	if resumed.Committed != spec.Members {
		t.Fatalf("resumed run committed %d, want %d", resumed.Committed, spec.Members)
	}
	if a, b := aggJSON(t, full.Aggregates), aggJSON(t, resumed.Aggregates); a != b {
		t.Errorf("resume broke bit-identity:\nfull:    %s\nresumed: %s", a, b)
	}

	// Resuming a completed campaign is a no-op with the same aggregates.
	again, err := (&Engine{Spec: spec, Cache: sharedCache, CheckpointPath: path}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again.ResumedFrom != spec.Members || again.Committed != spec.Members {
		t.Fatalf("no-op resume: from=%d committed=%d", again.ResumedFrom, again.Committed)
	}
	if a, b := aggJSON(t, full.Aggregates), aggJSON(t, again.Aggregates); a != b {
		t.Error("no-op resume changed aggregates")
	}
}

// A checkpoint written by a different campaign must be rejected, not
// silently mixed in.
func TestCheckpointSpecMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	ctx := context.Background()
	specA := Spec{Generator: GenSweep, Members: 9, Seed: 5, StepsPerPhase: 10}
	if _, err := (&Engine{Spec: specA, Cache: sharedCache, CheckpointPath: path, StopAfter: 4}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	specB := specA
	specB.Seed = 6
	if _, err := (&Engine{Spec: specB, Cache: sharedCache, CheckpointPath: path}).Run(ctx); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("mismatched spec resumed: %v", err)
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent")); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("absent checkpoint: %v", err)
	}
}

// Worker-pool burst under the race detector: many members through a
// small ring (3 workers, so 12 cells for 120 members: every cell is
// reused ten times), and a run whose context is already cancelled. Run
// with -race in CI.
func TestEngineBurst(t *testing.T) {
	spec := Spec{Generator: GenMixed, Members: 120, Seed: 3, Ranks: 256, StepsPerPhase: 5}
	sum, err := (&Engine{Spec: spec, Workers: 3, Cache: sharedCache, Metrics: metrics.NewRegistry()}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Committed != 120 {
		t.Fatalf("committed %d, want 120", sum.Committed)
	}
	if sum.MembersPerSec <= 0 {
		t.Error("members/sec not reported")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Engine{Spec: spec, Workers: 8, Cache: sharedCache}).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: %v", err)
	}
}

// Progress reads the same live record the returned Summary comes from:
// nothing before Run, and after Run the Summary's frontier, resume
// point, gain quantiles and cache counters, for a stopped run and for
// the run that resumes it.
func TestProgressMatchesSummary(t *testing.T) {
	spec := Spec{Generator: GenMixed, Members: 30, Seed: 8, Ranks: 256, StepsPerPhase: 5}
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	check := func(e *Engine, wantFrom, wantDone int) {
		t.Helper()
		if p, ok := e.Progress(); ok {
			t.Fatalf("Progress before Run: %+v, ok", p)
		}
		sum, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		p, ok := e.Progress()
		if !ok {
			t.Fatal("Progress after Run: not ok")
		}
		if p.Done != sum.Committed || p.Done != wantDone || p.Total != spec.Members ||
			p.ResumedFrom != wantFrom || sum.ResumedFrom != wantFrom {
			t.Errorf("progress %+v, summary committed %d resumed from %d; want done %d of %d from %d",
				p, sum.Committed, sum.ResumedFrom, wantDone, spec.Members, wantFrom)
		}
		gain := sum.Aggregates.ImprovementPct
		for _, q := range []struct {
			p   float64
			got float64
		}{{0.1, p.GainP10}, {0.5, p.GainP50}, {0.9, p.GainP90}} {
			if want, _ := gain.Quantile(q.p); q.got != want {
				t.Errorf("gain p%v: progress %v, aggregates %v", q.p*100, q.got, want)
			}
		}
		if p.GainMean != gain.Mean {
			t.Errorf("gain mean: progress %v, aggregates %v", p.GainMean, gain.Mean)
		}
		if p.CacheHits != sum.CacheHits || p.CacheMisses != sum.CacheMisses {
			t.Errorf("cache: progress %d/%d, summary %d/%d", p.CacheHits, p.CacheMisses, sum.CacheHits, sum.CacheMisses)
		}
	}
	check(&Engine{Spec: spec, Workers: 3, Cache: sharedCache, CheckpointPath: path, StopAfter: 12}, 0, 12)
	check(&Engine{Spec: spec, Workers: 3, Cache: sharedCache, CheckpointPath: path}, 12, spec.Members)
}

// cancelAfter makes e cancel its run once it has committed at least n
// members: e traces and logs every member, and the handler cancels on
// the log line of member window+n-1. A worker claims a member only
// while fewer than window IDs are claimed and uncommitted, so by then
// the frontier is at least n.
func cancelAfter(e *Engine, n int, cancel context.CancelFunc) {
	e.Tracer = telemetry.New(telemetry.Config{SampleEvery: 1})
	e.Log = slog.New(cancelOnMember{id: 4*e.Workers + n - 1, cancel: cancel})
}

// cancelOnMember is a slog handler that cancels once it sees the
// "member sampled" line of member id or a later one.
type cancelOnMember struct {
	id     int
	cancel context.CancelFunc
}

func (h cancelOnMember) Enabled(context.Context, slog.Level) bool { return true }
func (h cancelOnMember) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h cancelOnMember) WithGroup(string) slog.Handler            { return h }

func (h cancelOnMember) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "member sampled" {
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "member" && a.Value.Int64() >= int64(h.id) {
				h.cancel()
			}
			return true
		})
	}
	return nil
}

// memberSeconds is how many member durations reg has observed.
func memberSeconds(reg *metrics.Registry) uint64 {
	var n uint64
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "ensemble_member_seconds" {
			n += h.Count
		}
	}
	return n
}

// engineGoroutines returns the stacks of the goroutines running engine
// code. A worker whose only engine frame is running its deferred
// sync.(*WaitGroup).Done counts as exited: Wait may return once Done
// has dropped the counter, before Done's own last instructions have
// run, so any WaitGroup exit leaves that window open.
func engineGoroutines() []string {
	buf := make([]byte, 1<<20)
	var out []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "ensemble.(*Engine)") && !inWaitGroupDone(g) {
			out = append(out, g)
		}
	}
	return out
}

// inWaitGroupDone reports whether goroutine stack g has exactly one
// engine frame and that frame is calling sync.(*WaitGroup).Done. The
// "created by" line names the engine too and is not a frame.
func inWaitGroupDone(g string) bool {
	var frames []string
	for _, line := range strings.Split(g, "\n")[1:] {
		if line != "" && !strings.HasPrefix(line, "\t") && !strings.HasPrefix(line, "created by ") {
			frames = append(frames, line)
		}
	}
	engine := -1
	for i, f := range frames {
		if strings.Contains(f, "ensemble.(*Engine)") {
			if engine >= 0 {
				return false
			}
			engine = i
		}
	}
	return engine > 0 && strings.HasPrefix(frames[engine-1], "sync.(*WaitGroup).Done(")
}

// Run returns only after its last worker has: after StopAfter, a
// member error and a cancellation alike, the goroutine count at the
// return, read without yielding, is back to its value before Run, and
// no member is observed after the return. StopAfter starts no member
// past the ones it commits. A count that differs only because some
// goroutine outside the engine (a finished subtest, the finalizer) is
// starting or ending passes: the stacks must show no engine code
// running.
func TestRunLeavesNoWorkers(t *testing.T) {
	cases := []struct {
		name   string
		spec   Spec
		stop   int
		cancel bool
		ok     func(*Summary, error) bool
	}{
		{"stop after", Spec{Generator: GenMixed, Members: 200, Seed: 21, Ranks: 256, StepsPerPhase: 5}, 10, false,
			func(s *Summary, err error) bool { return err == nil && s.Stopped && s.Committed == 10 }},
		// Two ranks cannot hold a hierarchy member with three regional
		// nests, so some member fails with a driver error.
		{"member error", Spec{Generator: GenHierarchy, Members: 200, Seed: 21, Ranks: 2, StepsPerPhase: 5}, 0, false,
			func(s *Summary, err error) bool { return err != nil && !errors.Is(err, context.Canceled) }},
		{"cancel", Spec{Generator: GenMixed, Members: 200, Seed: 22, Ranks: 256, StepsPerPhase: 5}, 0, true,
			func(s *Summary, err error) bool { return errors.Is(err, context.Canceled) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cache := planserve.NewPlanCache(8192)
			defer cache.Close()
			reg := metrics.NewRegistry()
			e := &Engine{Spec: c.spec, Workers: 8, Cache: cache, Metrics: reg, StopAfter: c.stop}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancel {
				cancelAfter(e, 5, cancel)
			}
			before := runtime.NumGoroutine()
			sum, err := e.Run(ctx)
			observed := memberSeconds(reg)
			if !c.ok(sum, err) {
				t.Fatalf("run: summary %+v, err %v", sum, err)
			}
			if after := runtime.NumGoroutine(); after != before {
				if live := engineGoroutines(); len(live) > 0 {
					t.Errorf("%d goroutines after Run, %d before; in the engine:\n%s",
						after, before, strings.Join(live, "\n\n"))
				}
			}
			if again := memberSeconds(reg); again != observed {
				t.Errorf("ensemble_member_seconds count %d at return, %d later", observed, again)
			}
			if c.stop > 0 && observed != uint64(c.stop) {
				t.Errorf("StopAfter %d started %d members", c.stop, observed)
			}
		})
	}
}

// inWaitGroupDone passes only a worker that is running its deferred
// Done: one still in engine code, or engine code calling Done from a
// second engine frame, is alive.
func TestInWaitGroupDone(t *testing.T) {
	const created = "created by nestwrf/internal/ensemble.(*Engine).Run in goroutine 7\n\tensemble/engine.go:413 +0x7a5"
	for _, c := range []struct {
		stack string
		want  bool
	}{
		{"goroutine 41 [runnable]:\nsync.(*WaitGroup).Done(...)\n\tsync/waitgroup.go:110\n" +
			"nestwrf/internal/ensemble.(*Engine).Run.func2()\n\tensemble/engine.go:430 +0x2f1\n" + created, true},
		{"goroutine 41 [running]:\ninternal/race.ReleaseMerge(0xc0001)\n\trace/race.go:40\n" +
			"sync.(*WaitGroup).Add(0xc0001, 0xffffffffffffffff)\n\tsync/waitgroup.go:64 +0x1c\n" +
			"sync.(*WaitGroup).Done(0xc0001)\n\tsync/waitgroup.go:110 +0x2c\n" +
			"nestwrf/internal/ensemble.(*Engine).Run.func2()\n\tensemble/engine.go:430 +0x2f1\n" + created, true},
		{"goroutine 41 [chan send]:\nnestwrf/internal/ensemble.(*Engine).Run.func2()\n\tensemble/engine.go:426 +0x1a0\n" + created, false},
		{"goroutine 41 [runnable]:\nsync.(*WaitGroup).Done(...)\n\tsync/waitgroup.go:110\n" +
			"nestwrf/internal/ensemble.(*Engine).traceMember(0xc0002)\n\tensemble/engine.go:300 +0x10\n" +
			"nestwrf/internal/ensemble.(*Engine).Run.func2()\n\tensemble/engine.go:425 +0x2f1\n" + created, false},
	} {
		if got := inWaitGroupDone(c.stack); got != c.want {
			t.Errorf("inWaitGroupDone = %v, want %v, for\n%s", got, c.want, c.stack)
		}
	}
}

// A cancelled run writes its committed frontier, so an interrupted
// campaign loses no commits however rarely it checkpoints, and the run
// that resumes from it ends on the uninterrupted run's aggregates.
func TestCancelWritesCheckpoint(t *testing.T) {
	spec := Spec{Generator: GenMixed, Members: 200, Seed: 23, Ranks: 256, StepsPerPhase: 5}
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := &Engine{Spec: spec, Workers: 4, Cache: planserve.NewPlanCache(8192),
		CheckpointPath: path, CheckpointEvery: spec.Members}
	defer e.Cache.Close()
	cancelAfter(e, 5, cancel)
	_, err := e.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
	p, _ := e.Progress()
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("no checkpoint after cancellation: %v", err)
	}
	if cp.Committed != p.Done || p.Done < 5 {
		t.Fatalf("checkpoint frontier %d, progress %d (want >= 5)", cp.Committed, p.Done)
	}
	resumed, err := (&Engine{Spec: spec, Workers: 4, Cache: e.Cache, CheckpointPath: path}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ResumedFrom != cp.Committed || resumed.Committed != spec.Members {
		t.Fatalf("resumed from %d to %d, want %d to %d", resumed.ResumedFrom, resumed.Committed, cp.Committed, spec.Members)
	}
	full, err := (&Engine{Spec: spec, Workers: 4, Cache: e.Cache}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := aggJSON(t, full.Aggregates), aggJSON(t, resumed.Aggregates); a != b {
		t.Errorf("resume after cancellation diverged:\nfull:    %s\nresumed: %s", a, b)
	}
}
