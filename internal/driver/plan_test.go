package driver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/nest"
	"nestwrf/internal/workload"
)

func planConfig() *nest.Domain {
	cfg := nest.Root("plan", 286, 307)
	cfg.AddChild("s1", 394, 418, 3, 5, 5)
	cfg.AddChild("s2", 232, 202, 3, 150, 10)
	cfg.AddChild("s3", 313, 337, 3, 140, 150)
	return cfg
}

func TestBuildPlan(t *testing.T) {
	cfg := planConfig()
	opt := Options{
		Machine:  machine.BGL(),
		Ranks:    256,
		Strategy: Concurrent,
		MapKind:  MapMultiLevel,
	}
	p, err := BuildPlan(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ranks != 256 || p.Px*p.Py != 256 {
		t.Errorf("grid %dx%d for %d ranks", p.Px, p.Py, p.Ranks)
	}
	var sum float64
	for _, w := range p.Weights {
		sum += w
	}
	if len(p.Weights) != 3 || math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights %v sum %v, want 3 weights summing to 1", p.Weights, sum)
	}
	if len(p.Rects) != 3 {
		t.Fatalf("got %d rects, want 3", len(p.Rects))
	}
	area := 0
	for _, r := range p.Rects {
		area += r.Area()
	}
	if area != 256 {
		t.Errorf("partitions cover %d cores, want 256", area)
	}
	for _, kind := range []string{"oblivious", "txyz", "partition", "multilevel"} {
		if _, ok := p.Mapping[kind]; !ok {
			t.Errorf("mapping quality for %q missing (got %v)", kind, p.Mapping)
		}
	}
	// The embedded cost prediction is exactly what Run reports.
	want, err := Run(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Cost, want) {
		t.Errorf("plan cost %+v != Run result %+v", p.Cost, want)
	}
}

func TestBuildPlanBadInput(t *testing.T) {
	if _, err := BuildPlan(planConfig(), Options{Machine: machine.BGL()}); err == nil {
		t.Error("BuildPlan accepted zero ranks")
	}
	bad := nest.Root("bad", -1, 10)
	if _, err := BuildPlan(bad, Options{Machine: machine.BGL(), Ranks: 64}); err == nil {
		t.Error("BuildPlan accepted invalid domain")
	}
}

// BuildPlan and Run refuse a machine netsim cannot build, after the
// bare rank check and before any grid, torus or predictor (regression:
// both panicked in the model layer).
func TestBuildPlanRejectsBadMachine(t *testing.T) {
	m := machine.BGL()
	m.Net.Bandwidth = 0
	opt := Options{Machine: m, Ranks: 256, Strategy: Concurrent}
	if _, err := BuildPlan(planConfig(), opt); !errors.Is(err, ErrBadMachine) {
		t.Errorf("zero bandwidth: BuildPlan error %v, want ErrBadMachine", err)
	}
	m = machine.BGL()
	m.Net.LatencyPerHop = 0
	opt.Machine = m
	if _, err := BuildPlan(planConfig(), opt); !errors.Is(err, ErrBadMachine) {
		t.Errorf("zero latency: BuildPlan error %v, want ErrBadMachine", err)
	}
	if _, err := Run(planConfig(), opt); !errors.Is(err, ErrBadMachine) {
		t.Errorf("zero latency: Run error %v, want ErrBadMachine", err)
	}
	opt.Ranks = 0
	if _, err := BuildPlan(planConfig(), opt); err != ErrBadRanks {
		t.Errorf("zero ranks and a bad machine: error %v, want the bare ErrBadRanks", err)
	}
}

func TestCachedPredictorSharing(t *testing.T) {
	p1, err := CachedPredictor(machine.BGL())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CachedPredictor(machine.BGL())
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same machine identity did not share a predictor")
	}
	// A machine differing in any cost parameter must not share.
	m := machine.BGL()
	m.PointCost *= 2
	p3, err := CachedPredictor(m)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("different machine identity shared a predictor")
	}
}

// Two machines that share a name but differ in a cost-model field must
// not share a cached predictor (regression: the cache used to be keyed
// by Name alone).
func TestPredictorCacheKeyedByMachineIdentity(t *testing.T) {
	a := machine.BGL()
	b := machine.BGL()
	b.PointCost *= 2 // same Name, different cost model
	pa, err := CachedPredictor(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := CachedPredictor(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Fatal("same-name machines with different cost models share a predictor")
	}
	again, err := CachedPredictor(a)
	if err != nil {
		t.Fatal(err)
	}
	if again != pa {
		t.Error("identical machine should hit the cache")
	}
}

// TestBuildPlanCostEqualsRun pins BuildPlan's two halves against
// independent constructions over every strategy x allocation policy x
// mapping kind, on a three-level tree and on a childless root: the
// cost is exactly Run's result, and the quality report is what four
// freshly built mappings analyze to. MapPartition under Sequential is
// the case where the two halves use different mappings — the run falls
// back to oblivious, the report describes the partition mapping.
func TestBuildPlanCostEqualsRun(t *testing.T) {
	kinds := []MapKind{MapSequential, MapTXYZ, MapPartition, MapMultiLevel}
	for _, cfg := range []*nest.Domain{batchOracleDomain(), nest.Root("solo", 286, 307)} {
		for _, strat := range []Strategy{Sequential, Concurrent} {
			for _, pol := range []AllocPolicy{AllocPredicted, AllocNaivePoints, AllocEqual, AllocStripsPredicted} {
				for _, kind := range kinds {
					opt := Options{
						Machine: machine.BGL(), Ranks: 64,
						Strategy: strat, Alloc: pol, MapKind: kind,
						IOMode: 1, OutputEverySteps: 4,
					}
					want, wantErr := Run(cfg, opt)
					p, err := BuildPlan(cfg, opt)
					if wantErr != nil {
						if !errors.Is(err, wantErr) {
							t.Errorf("%s %v/%v/%v: BuildPlan err %v, Run err %v", cfg.Name, strat, pol, kind, err, wantErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s %v/%v/%v: %v", cfg.Name, strat, pol, kind, err)
					}
					if !reflect.DeepEqual(p.Cost, want) {
						t.Errorf("%s %v/%v/%v: plan cost %+v != Run result %+v", cfg.Name, strat, pol, kind, p.Cost, want)
					}
					g, _ := machine.GridFor(opt.Ranks)
					tor, _ := machine.TorusFor(opt.Ranks)
					fresh := []func() (*mapping.Mapping, error){
						func() (*mapping.Mapping, error) { return mapping.Sequential(g, tor) },
						func() (*mapping.Mapping, error) { return mapping.TXYZ(g, tor, opt.Machine.CoresPerNode) },
						func() (*mapping.Mapping, error) { return mapping.PartitionMapping(g, tor, p.Rects) },
						func() (*mapping.Mapping, error) { return mapping.MultiLevel(g, tor) },
					}
					quality := map[string]MappingQuality{}
					for i, k := range kinds {
						mp, err := fresh[i]()
						if err != nil {
							continue
						}
						rep, err := mapping.Analyze(mp, p.Rects)
						if err != nil {
							t.Fatal(err)
						}
						quality[k.String()] = MappingQuality{
							ParentAvgHops: rep.ParentAvg, SiblingAvgHops: rep.SiblingAvg, OverallAvgHops: rep.OverallAvg,
						}
					}
					if !reflect.DeepEqual(p.Mapping, quality) {
						t.Errorf("%s %v/%v/%v: mapping quality %+v, fresh mappings give %+v", cfg.Name, strat, pol, kind, p.Mapping, quality)
					}
				}
			}
		}
	}
}

// TestCachedPredictorDigest pins the BG/L and BG/P predictors' Predict
// over an (aspect, points) grid that reaches well beyond the profiled
// hull on every side (aspect 0.2-3.0 against the basis's 0.5-1.5,
// points 2 000-800 000 against ≈ 11 900-185 000) to one SHA-256 of the
// result bits. It was recorded on the walk-based point locator, before
// the first-match scan became geom's only path.
func TestCachedPredictorDigest(t *testing.T) {
	const want = "76863a94d47a551c70814e932c5c8806ccaa1e8e27dce83979a052a8066886b4"
	h := sha256.New()
	var buf [8]byte
	for _, m := range []machine.Machine{machine.BGL(), machine.BGP()} {
		p, err := CachedPredictor(m)
		if err != nil {
			t.Fatal(err)
		}
		for ai := 0; ai <= 28; ai++ {
			aspect := 0.2 + 0.1*float64(ai)
			for pi := 0; pi <= 40; pi++ {
				points := 2000 * math.Pow(400, float64(pi)/40)
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.Predict(aspect, points)))
				h.Write(buf[:])
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("predictions hash to %s, want %s", got, want)
	}
}

// TestBuildPlanMappingDigest pins the mapping-quality report of cold
// plans to one SHA-256: for eight seeded RandomPacific configurations
// of 2-6 siblings at 256,
// 1024 and 4096 ranks on BG/L and BG/P, under the partition and the
// multi-level mapping, every reported kind's name (sorted) and the bits
// of its parent, sibling and overall hop averages. It was recorded on
// the per-sibling Analyze walks over 24-byte coordinate tables.
func TestBuildPlanMappingDigest(t *testing.T) {
	const want = "efb4bd2f049187ac7faa3c9d041de9f508d5ea846a34032141dbf67082a98b26"
	h := sha256.New()
	var buf [8]byte
	bits := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for seed := int64(1); seed <= 8; seed++ {
		cfg := workload.RandomPacific(rand.New(rand.NewSource(seed)), 2+int(seed%5))
		for _, ranks := range []int{256, 1024, 4096} {
			for _, m := range []machine.Machine{machine.BGL(), machine.BGP()} {
				for _, kind := range []MapKind{MapPartition, MapMultiLevel} {
					plan, err := BuildPlan(cfg, Options{Machine: m, Ranks: ranks, Strategy: Concurrent, MapKind: kind})
					if err != nil {
						t.Fatal(err)
					}
					names := make([]string, 0, len(plan.Mapping))
					for name := range plan.Mapping {
						names = append(names, name)
					}
					slices.Sort(names)
					for _, name := range names {
						q := plan.Mapping[name]
						h.Write([]byte(name))
						bits(q.ParentAvgHops)
						for _, s := range q.SiblingAvgHops {
							bits(s)
						}
						bits(q.OverallAvgHops)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("plan mapping reports hash to %s, want %s", got, want)
	}
}

// Every enum option outside its named values is a typed error from
// Validate, Run, BuildPlan and Compare alike, never a silently
// different plan (regression: Strategy(9) ran the parent step alone,
// MapKind(9) the oblivious mapping and AllocPolicy(9) the predicted
// allocation, each with a nil error).
func TestOptionsRejectOutOfRangeEnums(t *testing.T) {
	cfg := nest.Root("plan", 286, 307)
	cfg.AddChild("a", 94, 124, 3, 5, 5)
	cfg.AddChild("b", 94, 124, 3, 150, 150)
	base := Options{Machine: machine.BGL(), Ranks: 256, Strategy: Concurrent, MapKind: MapMultiLevel, OutputEverySteps: 10}
	for _, tc := range []struct {
		name    string
		set     func(*Options)
		compare bool // false: Compare sets the strategy itself
	}{
		{"Strategy(9)", func(o *Options) { o.Strategy = 9 }, false},
		{"Strategy(-1)", func(o *Options) { o.Strategy = -1 }, false},
		{"MapKind(9)", func(o *Options) { o.MapKind = 9 }, true},
		{"AllocPolicy(9)", func(o *Options) { o.Alloc = 9 }, true},
		{"IOMode(9)", func(o *Options) { o.IOMode = 9 }, true},
	} {
		opt := base
		tc.set(&opt)
		if err := opt.Validate(); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: Validate error %v, want ErrBadOption", tc.name, err)
		}
		if _, err := Run(cfg, opt); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: Run error %v, want ErrBadOption", tc.name, err)
		}
		if _, err := BuildPlan(cfg, opt); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: BuildPlan error %v, want ErrBadOption", tc.name, err)
		}
		if _, err := Compare(cfg, opt); tc.compare && !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: Compare error %v, want ErrBadOption", tc.name, err)
		}
	}
	if _, err := Run(cfg, base); err != nil {
		t.Errorf("in-range options: %v", err)
	}
}
