package ensemble

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"nestwrf/internal/metrics"
	"nestwrf/internal/planserve"
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

// Worker-pool burst under the race detector: many members, small
// window, cancellation mid-flight. Run with -race in CI.
func TestEngineBurst(t *testing.T) {
	spec := Spec{Generator: GenMixed, Members: 120, Seed: 3, Ranks: 256, StepsPerPhase: 5}
	sum, err := (&Engine{Spec: spec, Workers: 8, Window: 9, Cache: sharedCache, Metrics: metrics.NewRegistry()}).Run(context.Background())
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
