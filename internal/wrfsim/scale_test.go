package wrfsim

import (
	"math"
	"reflect"
	"testing"

	"nestwrf/internal/metrics"
	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
)

// paperConfig is the paper's Table 2 multi-sibling setup: the pacific
// parent with four regions of interest. Unlike testConfig, every
// domain is large enough to decompose over thousands of ranks, so it
// is the fixture for full BG/P-scale functional runs.
func paperConfig() *nest.Domain {
	root := nest.Root("pacific", 286, 307)
	root.AddChild("sibling1", 394, 418, 3, 5, 5)
	root.AddChild("sibling2", 232, 202, 3, 150, 10)
	root.AddChild("sibling3", 232, 256, 3, 10, 160)
	root.AddChild("sibling4", 313, 337, 3, 140, 150)
	return root
}

// scaleSnapshot captures every virtual-time observable of a run the
// high-rank tests compare: final fields, makespan, wait aggregates,
// and the per-phase totals with the real-time Wall field zeroed.
func scaleSnapshot(out *Output) *Output {
	phases := make([]mpi.PhaseTotal, len(out.Phases))
	copy(phases, out.Phases)
	for i := range phases {
		phases[i].Sum.Wall = 0
	}
	out.Phases = phases
	return out
}

func equalOutputs(t *testing.T, label string, a, b *Output) {
	t.Helper()
	if d := a.Parent.MaxDiff(b.Parent); d != 0 {
		t.Errorf("%s: parent fields differ by %v (want exactly 0)", label, d)
	}
	for i := range a.Nests {
		if d := a.Nests[i].MaxDiff(b.Nests[i]); d != 0 {
			t.Errorf("%s: nest %d fields differ by %v (want exactly 0)", label, i, d)
		}
	}
	if a.MaxClock != b.MaxClock || a.AvgWait != b.AvgWait || a.MaxWait != b.MaxWait {
		t.Errorf("%s: clock/wait aggregates differ: (%v, %v, %v) != (%v, %v, %v)",
			label, a.MaxClock, a.AvgWait, a.MaxWait, b.MaxClock, b.AvgWait, b.MaxWait)
	}
	if len(a.Phases) != len(b.Phases) {
		t.Fatalf("%s: phase count %d != %d", label, len(a.Phases), len(b.Phases))
	}
	for i := range a.Phases {
		if a.Phases[i].Name != b.Phases[i].Name || a.Phases[i].Ranks != b.Phases[i].Ranks ||
			a.Phases[i].Sum != b.Phases[i].Sum || a.Phases[i].MaxWait != b.Phases[i].MaxWait {
			t.Errorf("%s: phase %q differs: %+v != %+v", label, a.Phases[i].Name, a.Phases[i], b.Phases[i])
		}
	}
}

// pinnedPhase is one mpi.PhaseTotal with its virtual-time floats as
// IEEE-754 bit patterns.
type pinnedPhase struct {
	name                    string
	ranks                   int
	compute, wait, transfer uint64
	sends, recvs            int
	sendBytes, recvBytes    int
	maxWait                 uint64
}

// pinnedRun holds every virtual-time observable of one testConfig() run.
type pinnedRun struct {
	maxClock, avgWait, maxWait uint64
	phases                     []pinnedPhase
}

// The virtual clocks, wait aggregates and per-phase totals of
// testConfig() under both strategies are pinned to the values recorded
// on mpi's single-mutex oracle runtime at the parent of the commit that
// made that runtime unreachable from outside the mpi package; the
// sharded runtime produced the same bits there. That runtime is gone
// now; mpi's TestShardedMatchesReference pins its own programs to
// digests recorded on it the same way.
func TestFunctionalShardedMatchesReference(t *testing.T) {
	want := map[Strategy]pinnedRun{
		Sequential: {0x3f6b0f13ddf227e9, 0x3f587b4726b8af14, 0x3f5a9b7b8ad49e99, []pinnedPhase{
			{"init", 32, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0, 0, 0, 0, 0x0000000000000000},
			{"parent", 32, 0x3f892a737110e457, 0x3f7c3a14c62d17e7, 0x3f90119b0803af8e, 312, 312, 92160, 92160, 0x3f376a6ea28ecf82},
			{"coupling", 32, 0x0000000000000000, 0x3f8083e791db4573, 0x3f94ef38319fb53e, 402, 402, 343800, 343800, 0x3f3ad5210cc898e7},
			{"nest:nest1", 32, 0x3f9a8ac5c13fd0cf, 0x3f918d08f01c3ad2, 0x3fa813631a67c671, 936, 936, 222912, 222912, 0x3f47310dd8ca75d0},
			{"nest:nest2", 32, 0x3f8fd9ba1b1960fe, 0x3f8ffb966c71200b, 0x3fa80c97a432351a, 936, 936, 171072, 171072, 0x3f4258586ce4c0f4},
			{"collect", 32, 0x0000000000000000, 0x3f1b412ca3aa9d20, 0x3f73e30bd372d93a, 93, 93, 205200, 205200, 0x3f1b412ca3aa9d20},
		}},
		Concurrent: {0x3f698fc074464556, 0x3f53ad3d54382a56, 0x3f579912a4e210ef, []pinnedPhase{
			{"init", 32, 0x0000000000000000, 0x3f7a04969b401573, 0x3f79674067347dc1, 124, 124, 1984, 1984, 0x3f2a3908ac994808},
			{"parent", 32, 0x3f892a737110e457, 0x3f7d080bf0acae7e, 0x3f90119b0803af8e, 312, 312, 92160, 92160, 0x3f3afe9a358706a6},
			{"coupling", 32, 0x0000000000000000, 0x3f7f59ed314648ff, 0x3f8e3a7daa4fca41, 288, 288, 360000, 360000, 0x3f3de7a51de4cb02},
			{"nest:nest2", 12, 0x3f8fd9ba1b1960fb, 0x3f7a121a33ddd30c, 0x3f8f86875cefdee8, 306, 306, 93312, 93312, 0x3f4901c870e15868},
			{"collect", 32, 0x0000000000000000, 0x3f3c68966c688900, 0x3f6b9b66f9335d23, 62, 62, 270000, 270000, 0x3f2dbfc8464420e0},
			{"nest:nest1", 20, 0x3f9a8ac5c13fd0ce, 0x3f85955ba4f4f50d, 0x3f9cbbf1f7ee526d, 558, 558, 160704, 160704, 0x3f43a95dba78ead0},
		}},
	}
	for _, s := range []Strategy{Sequential, Concurrent} {
		out, err := Run(testConfig(), baseOpts(s))
		if err != nil {
			t.Fatal(err)
		}
		got := pinnedRun{
			maxClock: math.Float64bits(out.MaxClock),
			avgWait:  math.Float64bits(out.AvgWait),
			maxWait:  math.Float64bits(out.MaxWait),
		}
		for _, p := range out.Phases {
			got.phases = append(got.phases, pinnedPhase{
				p.Name, p.Ranks,
				math.Float64bits(p.Sum.Compute), math.Float64bits(p.Sum.Wait), math.Float64bits(p.Sum.Transfer),
				p.Sum.SendCount, p.Sum.RecvCount, p.Sum.SendBytes, p.Sum.RecvBytes,
				math.Float64bits(p.MaxWait),
			})
		}
		if !reflect.DeepEqual(got, want[s]) {
			t.Errorf("strategy %v: virtual-time observables drifted:\n got %#v\nwant %#v", s, got, want[s])
		}
	}
}

// A full paper-scale functional run must be deterministic: repeated
// runs at thousands of ranks produce bit-identical fields, clocks and
// phase stats. (GOMAXPROCS variation is covered in the mpi package's
// high-rank determinism test; here the whole wrfsim stack runs.)
func TestFunctionalHighRankDeterminism(t *testing.T) {
	ranks := 2048
	if raceEnabled {
		ranks = 128 // the race detector multiplies per-goroutine cost
	}
	if testing.Short() {
		ranks = 128
	}
	opt := baseOpts(Concurrent)
	opt.Ranks = ranks
	opt.Steps = 1
	cfg := paperConfig()
	run := func() *Output {
		out, err := Run(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		return scaleSnapshot(out)
	}
	equalOutputs(t, "run-to-run", run(), run())
}

// Options.Metrics must publish the run's payload-pool snapshot, and
// the pool must actually serve steady-state coupling traffic.
func TestRunRecordsPoolMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	opt := baseOpts(Sequential)
	opt.Metrics = reg
	out, err := Run(testConfig(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Pools.Hits == 0 || out.Pools.Frees == 0 {
		t.Fatalf("pool stats not populated: %+v", out.Pools)
	}
	if hr := reg.Gauge("mpi_payload_pool_hit_rate").Value(); hr <= 0 || hr > 1 {
		t.Errorf("recorded hit rate %v out of (0, 1]", hr)
	}
	if got := reg.Gauge("mpi_payload_pool_hits").Value(); got != float64(out.Pools.Hits) {
		t.Errorf("recorded hits %v != snapshot %d", got, out.Pools.Hits)
	}
}

// Once every payload shape has been seen, the pool serves the rest of
// the run: a 32-rank sequential run of the paper's domain with output
// (the large, asymmetric feedback and gather payloads) misses on steps
// 5–8 only where goroutine scheduling lets ranks drift further apart
// than before, which is a handful of buffers, not a share of traffic.
// A capped pool drops and re-allocates the asymmetric buffers every
// step (≈ 6 % of steps 5–8's requests).
func TestPoolSteadyStateRecycles(t *testing.T) {
	pools := func(steps int) (requests, misses int64) {
		opt := baseOpts(Sequential)
		opt.Steps = steps
		opt.OutputEverySteps = 2
		out, err := Run(paperConfig(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return int64(out.Pools.Hits + out.Pools.Misses), int64(out.Pools.Misses)
	}
	r4, m4 := pools(4)
	r8, m8 := pools(8)
	if extra := m8 - m4; 100*extra > r8-r4 {
		t.Errorf("pool misses %d after 4 steps, %d after 8: %d of steps 5–8's %d requests missed (want < 1 %%)",
			m4, m8, extra, r8-r4)
	}
}
