package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nestwrf/internal/planserve"
	"nestwrf/internal/telemetry"
)

// smokeConfig runs a workload at about 1/100 size, in-process.
func smokeConfig() runConfig {
	return runConfig{sz: smokeSizes, full: false, rounds: 1, fixedReps: 2}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkAgainstSpec fails when an emitted metric is missing from
// BENCHMARK.json, an extra one appears, a unit is absent or differs,
// or a name breaks the contract's pattern.
func checkAgainstSpec(t *testing.T, what string, got map[string]metricValue, want []metricSpec) {
	t.Helper()
	declared := map[string]metricSpec{}
	for _, ms := range want {
		declared[ms.Name] = ms
		if _, ok := got[ms.Name]; !ok {
			t.Errorf("%s: BENCHMARK.json declares %q but the run did not emit it", what, ms.Name)
		}
	}
	for name, v := range got {
		ms, ok := declared[name]
		switch {
		case !ok:
			t.Errorf("%s: the run emitted %q, which BENCHMARK.json does not declare", what, name)
		case v.Unit == "":
			t.Errorf("%s: %q has no unit", what, name)
		case v.Unit != ms.Unit:
			t.Errorf("%s: %q has unit %q, BENCHMARK.json says %q", what, name, v.Unit, ms.Unit)
		}
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q breaks the naming rule", what, name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %q is %v", what, name, v.Value)
		}
	}
}

// TestSmoke runs every workload end to end at small size, untraced and
// traced, and holds the emitted metrics to BENCHMARK.json: this is what
// keeps the benchmark from rotting under go test ./... .
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if i < len(spec.Workloads) && (spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why) {
			t.Errorf("workload %d: BENCHMARK.json says %q (%s), the benchmark %q (%s)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	t.Chdir(t.TempDir()) // span files and budgets land in a scratch bench/out
	if err := os.MkdirAll(filepath.Join("bench", "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, 1, 0, false, smokeConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("untraced: %d of %d ops failed: %s", res.Failed, res.Attempted, res.FirstError)
			}
			checkAgainstSpec(t, "end_to_end", res.Metrics, spec.EndToEnd)
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %q is %v: must never be 0", name, v.Value)
				}
			}
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  *string  `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(resultLine(res)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("result line does not meet the contract: %v: %s", err, resultLine(res))
			}

			if skipTracedSmoke(t) {
				return
			}
			res, err = runWorkload(w, 1, 0, true, smokeConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("traced: %d of %d ops failed: %s", res.Failed, res.Attempted, res.FirstError)
			}
			checkAgainstSpec(t, "per_layer", res.Metrics, spec.PerLayer)
			f, err := os.Open(filepath.Join(outDir(), w.name+".spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			dump, err := telemetry.DecodeDump(f)
			if err != nil {
				t.Fatalf("span file: %v", err)
			}
			if len(dump.Spans) == 0 {
				t.Error("span file holds no spans")
			}
			if !strings.Contains(res.Budget, "coverage") {
				t.Errorf("no layer budget: %q", res.Budget)
			}
		})
	}
}

// TestGeneratorDeterminism: the same seed gives byte-identical request
// bodies, member specs and job lists; another seed gives other inputs.
func TestGeneratorDeterminism(t *testing.T) {
	hash := func(seed int64) string {
		h, err := inputHash(seed, 16, 48, 30)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if a, b := hash(7), hash(7); a != b {
		t.Errorf("seed 7 hashed to %s and then to %s", a, b)
	}
	if hash(7) == hash(8) {
		t.Error("seeds 7 and 8 give the same inputs")
	}
	const pinned = "16147404a6e4167b316f6e71e63afa66f88f55745eded99b9f46498c787ed7aa"
	if got := hash(1); got != pinned {
		t.Errorf("inputs of seed 1 changed: hash %s, pinned %s (every recorded baseline is void if this is deliberate)", got, pinned)
	}
	a, b := hotRequests(3, 16), hotRequests(3, 16)
	for i := range a {
		if !bytes.Equal(mustJSON(a[i]), mustJSON(b[i])) {
			t.Fatalf("hot request %d differs between two generations", i)
		}
	}
	seen := map[string]bool{}
	for _, r := range a {
		seen[geometryKey(r)] = true
	}
	if len(seen) != len(a) {
		t.Errorf("%d distinct hot keys among %d requests", len(seen), len(a))
	}
}

// TestChurnKeysDistinct proves the plan-churn stream's distinctness on
// the program's own canonical key: a dry-run cache must count every
// request as a miss.
func TestChurnKeysDistinct(t *testing.T) {
	n := 2 * len(churnCombos)
	if testing.Short() {
		n = len(churnCombos)
	}
	cache := planserve.NewPlanCache(2 * n)
	defer cache.Close()
	stream := newChurnStream(1)
	for k := 0; k < n; k++ {
		idx := k * 7919 % churnPeriod // 7919 is coprime to the period: n distinct indices
		cfg, opt, err := toJob(stream.request(idx))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cache.Plan(context.Background(), cfg, opt); err != nil {
			t.Fatalf("index %d: %v", idx, err)
		}
	}
	if hits, misses, _ := cache.Stats(); hits != 0 || int(misses) != n || cache.Joins() != 0 {
		t.Errorf("%d hits, %d misses, %d joins over %d requests: keys collide", hits, misses, cache.Joins(), n)
	}
	// And by construction over a long prefix: no two indices agree on
	// the key-bearing sizes.
	stream = newChurnStream(5)
	seen := map[string]int{}
	for i := 0; i < 20000; i++ {
		k := geometryKey(stream.request(i))
		if j, dup := seen[k]; dup {
			t.Fatalf("indices %d and %d share a key", j, i)
		}
		seen[k] = i
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) on these ten values.
	q := quartilesOf([]float64{12, 15, 11, 19, 14, 13, 18, 16, 17, 10})
	if q.Q1 != 11.75 || q.Median != 14.5 || q.Q3 != 17.25 {
		t.Errorf("quartiles %+v, want 11.75 14.5 17.25", q)
	}
	if got, want := q.spread(), 5.5/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}

func TestAnalyzeSpans(t *testing.T) {
	attr := func(k, v string) []telemetry.Attr { return []telemetry.Attr{{Key: k, Value: v}} }
	dump := telemetry.Dump{Spans: []telemetry.Span{
		{ID: 1, Name: "serve", Layer: telemetry.LayerServe, Start: 1, End: 2},
		{ID: 2, Parent: 1, Name: "lookup", Layer: telemetry.LayerCache, Start: 1.2, End: 1.9, Attrs: attr("outcome", "miss")},
		{ID: 3, Parent: 2, Name: "run", Layer: telemetry.LayerDriver, Start: 1.4, End: 1.8},
		{ID: 4, Parent: 3, Name: "p1", Layer: telemetry.LayerPhase, Start: 1.4, End: 1.6},
		{ID: 5, Parent: 3, Name: "p2", Layer: telemetry.LayerPhase, Start: 1.5, End: 1.7}, // overlaps p1
		{ID: 6, Name: "warm-up", Layer: telemetry.LayerServe, Start: 0.1, End: 0.2},       // outside the window
	}}
	b := analyzeSpans(dump, [][2]float64{{1, 3}}, 1)
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("serve self", b.self[telemetry.LayerServe], 0.3)
	near("waiting", b.wait, 0.3)
	near("driver self", b.self[telemetry.LayerDriver], 0.1) // 0.4 minus the 0.3 its phases cover
	near("phase self", b.self[telemetry.LayerPhase], 0.4)
	near("coverage", b.coverage(), 1.1/2)
	if b.spans != 5 {
		t.Errorf("%d spans analysed, want 5", b.spans)
	}
}

func TestCompare(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []metricSpec{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	}}
	mk := func(nproc int, rate, p50, q1, q3 float64) *suiteResult {
		return &suiteResult{Schema: suiteSchema, Host: hostInfo{NProc: nproc, GOMAXPROCS: nproc},
			Workloads: []*runResult{{Workload: "plan-hot", Metrics: map[string]metricValue{
				"ops_per_s": {Value: rate, Unit: "1/s", Q1: rate * 0.99, Q3: rate * 1.01, N: 9},
				"op_p50_us": {Value: p50, Unit: "us", Q1: q1, Q3: q3, N: 9},
			}}}}
	}
	run := func(a, b *suiteResult) (int, string) {
		var buf bytes.Buffer
		code := compareSuites(&buf, spec, a, b)
		return code, buf.String()
	}
	if code, out := run(mk(2, 1000, 20, 19.8, 20.2), mk(2, 1010, 20.5, 20.3, 20.7)); code != 0 || strings.Contains(out, "REGRESSION") {
		t.Errorf("a 2.5%% move within a 10%% bound: code %d\n%s", code, out)
	}
	if code, out := run(mk(2, 1000, 20, 19.8, 20.2), mk(2, 800, 20, 19.8, 20.2)); code != 1 || !strings.Contains(out, "REGRESSION") {
		t.Errorf("a 20%% throughput loss was not flagged: code %d\n%s", code, out)
	}
	if _, out := run(mk(2, 1000, 20, 15, 25), mk(2, 1000, 30, 29, 31)); !strings.Contains(out, "unresolved") {
		t.Errorf("a row whose spread exceeds its bound must read unresolved:\n%s", out)
	}
	if code, out := run(mk(2, 1000, 20, 19.8, 20.2), mk(4, 1000, 20, 19.8, 20.2)); code != 2 || !strings.Contains(out, "refusing") {
		t.Errorf("files from hosts of different size must be refused: code %d\n%s", code, out)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	setup := false
	check := func(ms metricSpec, bounded bool) {
		if !nameRE.MatchString(ms.Name) || names[ms.Name] {
			t.Errorf("metric name %q is malformed or used twice", ms.Name)
		}
		names[ms.Name] = true
		if !unitRE.MatchString(ms.Unit) {
			t.Errorf("%s: unit %q", ms.Name, ms.Unit)
		}
		if ms.Better != "lower" && ms.Better != "higher" {
			t.Errorf("%s: better = %q", ms.Name, ms.Better)
		}
		if bounded && (ms.Bound <= 0 || ms.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", ms.Name, ms.Bound)
		}
		if !bounded && ms.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", ms.Name)
		}
	}
	for _, ms := range spec.EndToEnd {
		check(ms, true)
		if ms.Name == "setup_s" && ms.Unit == "s" && ms.Better == "lower" {
			setup = true
		}
	}
	for _, ms := range spec.PerLayer {
		check(ms, false)
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) || names[w.Name] {
			t.Errorf("workload name %q is malformed or used twice", w.Name)
		}
		names[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"--workload x --trace 1 --seed 3": "--workload x -trace=1 --seed 3",
		"-trace":                          "-trace=1",
		"--trace 0":                       "-trace=0",
		"-trace -seed 2":                  "-trace=1 -seed 2",
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(in)), " "); got != want {
			t.Errorf("normalizeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}
