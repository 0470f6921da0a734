package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// metricValue is one reported number. Quartiles and N say what the
// value is the median of, when it is one.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// runResult is everything one workload run produced; the child writes
// it to bench/out/<workload>[.trace].json and the suite merges them.
type runResult struct {
	Workload   string                 `json:"workload"`
	Why        string                 `json:"why"`
	Op         string                 `json:"op"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Host       hostInfo               `json:"host"`
	InputHash  string                 `json:"input_sha256"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailShare  float64                `json:"fail_share"`
	FirstError string                 `json:"first_error,omitempty"`
	Reps       int                    `json:"reps"`
	Setups     int                    `json:"setups"`
	Metrics    map[string]metricValue `json:"metrics"`
	// Info holds numbers that are reported but not gated (for example
	// the request p99 with its sample count).
	Info map[string]metricValue `json:"info,omitempty"`
	// Budget is the layer-budget report of a traced run.
	Budget string `json:"budget,omitempty"`
}

// setupRounds is how many times a run sets the workload up; setup_s is
// the median, so one slow start does not decide it.
const setupRounds = 3

// minReps is the least number of timed reps whatever --seconds says.
const minReps = 3

// measured is the raw outcome of set-up plus a timed loop.
type measured struct {
	setups  []float64
	samples []sample
	// repP50 and repP99 are each rep's latency percentiles (us), for
	// the workloads that time single requests. Only one rep's
	// latencies are ever held, so memory does not grow with the run.
	repP50, repP99 []float64
	latencies      int
	tally          tally
	counts         map[string]float64
}

// measure sets the workload up `rounds` times (keeping the last
// instance), then runs timed reps: exactly fixedReps when positive,
// else until `seconds` have been measured. The instance is finished
// (whole-run checks) and closed before returning.
func measure(w workloadDef, e *env, seconds float64, rounds, fixedReps int) (*measured, error) {
	m := &measured{}
	var inst instance
	t := processStart
	for i := 0; i < rounds; i++ {
		if i > 0 {
			inst.close()
			t = time.Now()
		}
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		m.setups = append(m.setups, time.Since(t).Seconds())
	}
	defer inst.close()
	start := time.Now()
	for r := 0; ; r++ {
		if fixedReps > 0 {
			if r >= fixedReps {
				break
			}
		} else if r >= minReps && time.Since(start).Seconds() >= seconds {
			break
		}
		inst.prepare()
		m.samples = append(m.samples, timeRep(func() int {
			t0 := time.Now()
			n := inst.rep(&m.tally)
			if e.onRep != nil {
				e.onRep(t0, time.Now())
			}
			return n
		}))
		if lat := m.tally.lat; len(lat) > 0 {
			slices.Sort(lat)
			m.repP50 = append(m.repP50, percentileNs(lat, 0.5)/1e3)
			m.repP99 = append(m.repP99, percentileNs(lat, 0.99)/1e3)
			m.latencies += len(lat)
			m.tally.lat = lat[:0]
		}
	}
	inst.finish(&m.tally)
	m.counts = inst.counts()
	return m, nil
}

// rates is each rep's ops per second.
func (m *measured) rates() []float64 {
	xs := make([]float64, len(m.samples))
	for i, s := range m.samples {
		xs[i] = float64(s.ops) / s.wall
	}
	return xs
}

func med(xs []float64, unit string) metricValue {
	q := quartilesOf(xs)
	return metricValue{Value: q.Median, Unit: unit, Q1: q.Q1, Q3: q.Q3, N: q.N}
}

// endToEnd turns a measured run into the end-to-end metrics. Every
// per-op number is the median over reps of (rep total / rep ops), so a
// rep that met a noisy neighbour does not decide the result.
func endToEnd(m *measured, res *runResult) {
	per := func(f func(s sample) float64) []float64 {
		xs := make([]float64, len(m.samples))
		for i, s := range m.samples {
			xs[i] = f(s) / float64(s.ops)
		}
		return xs
	}
	res.Metrics = map[string]metricValue{
		"setup_s":         med(m.setups, "s"),
		"ops_per_s":       med(m.rates(), "1/s"),
		"cpu_us_per_op":   med(per(func(s sample) float64 { return s.cpu * 1e6 }), "us"),
		"allocs_per_op":   med(per(func(s sample) float64 { return float64(s.mallocs) }), "count"),
		"alloc_kb_per_op": med(per(func(s sample) float64 { return float64(s.bytes) / 1024 }), "KB"),
		"peak_rss_mb":     {Value: peakRSSMB(), Unit: "MB"},
	}
	// op_p50_us: the median latency of one op. Request workloads time
	// every request and report the median over reps of each rep's own
	// median; the others time whole reps.
	if len(m.repP50) > 0 {
		res.Metrics["op_p50_us"] = med(m.repP50, "us")
		p99 := med(m.repP99, "us")
		p99.N = m.latencies // the sample count behind the tail
		res.Info = map[string]metricValue{"op_p99_us": p99}
	} else {
		res.Metrics["op_p50_us"] = med(per(func(s sample) float64 { return s.wall * 1e6 }), "us")
	}
}

// runConfig is the size of a run: the benchmark's own (fullRun) or the
// go test smoke's.
type runConfig struct {
	sz        sizes
	full      bool // fullSizes: goldens apply, probes run full batches
	rounds    int  // set-up rounds of an untraced run
	fixedReps int  // > 0: exactly this many timed reps, whatever --seconds says
}

var fullRun = runConfig{sz: fullSizes, full: true, rounds: setupRounds}

// runWorkload is one child-process run: --workload, --seed, --seconds,
// --trace.
func runWorkload(w workloadDef, seed int64, seconds float64, trace bool, cfg runConfig) (*runResult, error) {
	e := &env{seed: seed, nproc: runtime.GOMAXPROCS(0), sz: cfg.sz, full: cfg.full}
	res := &runResult{
		Workload: w.name, Why: w.why, Op: w.op, Seed: seed, Seconds: seconds, Trace: trace,
		Host: readHostInfo(), Setups: cfg.rounds,
	}
	var err error
	if res.InputHash, err = inputHash(seed, cfg.sz.hotKeys, cfg.sz.churnPerClient*e.nproc, cfg.sz.members); err != nil {
		return nil, err
	}
	var t *tally
	if trace {
		reps := cfg.fixedReps
		if reps == 0 {
			reps = w.traceReps
		}
		res.Setups = 1
		t, err = runTraced(w, e, reps, res)
	} else {
		var m *measured
		if m, err = measure(w, e, seconds, cfg.rounds, cfg.fixedReps); err == nil {
			endToEnd(m, res)
			res.Reps = len(m.samples)
			t = &m.tally
		}
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.FirstError = t.attempted, t.failed, t.firstErr
	res.Correct = t.failed == 0 && t.attempted > 0
	if t.attempted > 0 {
		res.FailShare = float64(t.failed) / float64(t.attempted)
	}
	return res, nil
}
