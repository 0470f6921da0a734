// Run-level observability: a structured Report assembled while a run
// executes, decomposing the four scalar aggregates of Result into
// per-domain phase breakdowns (compute vs. transfer vs. wait),
// per-sibling predicted-vs-realized phase times (the paper's < 6 %
// prediction-error claim observed in situ, and the measure steering
// rebalances by), per-phase link-congestion summaries and the
// I/O write events. The report has a stable JSON schema so harnesses
// can diff runs across revisions.

package driver

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"nestwrf/internal/alloc"
	"nestwrf/internal/metrics"
	"nestwrf/internal/model"
	"nestwrf/internal/nest"
	"nestwrf/internal/netsim"
	"nestwrf/internal/stats"
)

// Schema identifiers embedded in the encoded reports. Bump the
// version suffix on any incompatible field change.
const (
	ReportSchema     = "nestwrf/run-report/v1"
	ComparisonSchema = "nestwrf/compare-report/v1"
)

// ReportConfig records what was run.
type ReportConfig struct {
	Domain   string `json:"domain"`
	Machine  string `json:"machine"`
	Ranks    int    `json:"ranks"`
	Strategy string `json:"strategy"`
	Mapping  string `json:"mapping"`
	Alloc    string `json:"alloc"`
	// IOMode and OutputEverySteps are present only when I/O is enabled.
	IOMode           string `json:"io_mode,omitempty"`
	OutputEverySteps int    `json:"output_every_steps,omitempty"`
}

// ReportTotals mirrors Result in schema-stable form.
type ReportTotals struct {
	IterSeconds    float64 `json:"iter_seconds"`
	IOSeconds      float64 `json:"io_seconds"`
	TotalSeconds   float64 `json:"total_seconds"`
	WaitAvgSeconds float64 `json:"wait_avg_seconds"`
	WaitMaxSeconds float64 `json:"wait_max_seconds"`
	HopsAvg        float64 `json:"hops_avg"`
}

// PhaseBreakdown decomposes one domain's contribution to a parent
// iteration. Per sub-step, the synchronized duration is compute +
// worst-rank communication; the breakdown splits the communication
// into the average rank's transfer time and the residual
// synchronization wait (worst minus average), which is what accrues as
// MPI_Wait on the average rank.
type PhaseBreakdown struct {
	Domain string `json:"domain"`
	// Ranks the domain ran on.
	Ranks int `json:"ranks"`
	// Steps is the number of sub-steps per parent iteration (the
	// product of refinement ratios down to this domain).
	Steps float64 `json:"steps"`
	// Per-parent-iteration virtual seconds.
	ComputeSeconds  float64 `json:"compute_seconds"`
	TransferSeconds float64 `json:"transfer_seconds"`
	WaitSeconds     float64 `json:"wait_seconds"`
	// CouplingSeconds is the nesting bookkeeping (boundary
	// interpolation + feedback) charged once per parent step.
	CouplingSeconds float64 `json:"coupling_seconds,omitempty"`
}

// SiblingReport contrasts the allocator's prediction with the realized
// timing for one first-level sibling.
type SiblingReport struct {
	Name  string     `json:"name"`
	Ranks int        `json:"ranks"`
	Rect  alloc.Rect `json:"rect"`
	// PredictedShare is the allocation policy's predicted fraction of
	// the total sibling workload. RealizedShare is the measured one:
	// phase time x ranks over the sum across siblings — in a sequential
	// run (equal rank counts) this reduces to the phase-time ratio the
	// paper's Table 2 profiles, and in a concurrent run it undoes the
	// allocator's proportional partitioning so the two remain
	// comparable.
	PredictedShare float64 `json:"predicted_share"`
	RealizedShare  float64 `json:"realized_share"`
	// PredictionErrorPct is |predicted-realized| / realized, in percent
	// — the per-sibling counterpart of the paper's < 6 % claim,
	// observed in situ.
	PredictionErrorPct float64 `json:"prediction_error_pct"`
	// PredictedPhaseSeconds is the phase time the sibling would have
	// shown had its realized workload matched the prediction exactly on
	// its allocated ranks; PhaseSeconds and StepSeconds are measured.
	PredictedPhaseSeconds float64 `json:"predicted_phase_seconds"`
	PhaseSeconds          float64 `json:"phase_seconds"`
	StepSeconds           float64 `json:"step_seconds"`
}

// CongestionPhase is the link-congestion summary of one communication
// phase (one domain alone, or a set of concurrent siblings).
type CongestionPhase struct {
	Phase string `json:"phase"`
	netsim.Congestion
}

// WriteReport is one forecast output event of the run.
type WriteReport struct {
	Domain  string  `json:"domain"`
	Writers int     `json:"writers"`
	Bytes   float64 `json:"bytes"`
	Seconds float64 `json:"seconds"`
}

// Report is the structured record of one run.
type Report struct {
	Schema     string            `json:"schema"`
	Config     ReportConfig      `json:"config"`
	Totals     ReportTotals      `json:"totals"`
	Phases     []PhaseBreakdown  `json:"phases"`
	Siblings   []SiblingReport   `json:"siblings,omitempty"`
	Congestion []CongestionPhase `json:"congestion,omitempty"`
	IO         []WriteReport     `json:"io,omitempty"`
}

// EncodeJSON writes the report as indented JSON.
func (rep *Report) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// DecodeReport reads a JSON run report, rejecting unknown schemas.
func DecodeReport(r io.Reader) (*Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("driver: decoding run report: %w", err)
	}
	if rep.Schema != ReportSchema {
		return nil, fmt.Errorf("driver: unsupported report schema %q (want %s)", rep.Schema, ReportSchema)
	}
	return &rep, nil
}

// ComparisonReport pairs the two strategies' reports with the headline
// improvements, the JSON counterpart of the CLI's -compare output.
type ComparisonReport struct {
	Schema              string  `json:"schema"`
	Default             *Report `json:"default"`
	Concurrent          *Report `json:"concurrent"`
	ImprovementPct      float64 `json:"improvement_pct"`
	TotalImprovementPct float64 `json:"total_improvement_pct"`
	WaitImprovementPct  float64 `json:"wait_improvement_pct"`
}

// NewComparisonReport assembles a ComparisonReport from the two
// strategies' run reports.
func NewComparisonReport(def, con *Report) *ComparisonReport {
	return &ComparisonReport{
		Schema:              ComparisonSchema,
		Default:             def,
		Concurrent:          con,
		ImprovementPct:      stats.Improvement(def.Totals.IterSeconds, con.Totals.IterSeconds),
		TotalImprovementPct: stats.Improvement(def.Totals.TotalSeconds, con.Totals.TotalSeconds),
		WaitImprovementPct:  stats.Improvement(def.Totals.WaitAvgSeconds, con.Totals.WaitAvgSeconds),
	}
}

// EncodeJSON writes the comparison report as indented JSON.
func (cr *ComparisonReport) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cr)
}

// DecodeComparisonReport reads a JSON comparison report.
func DecodeComparisonReport(r io.Reader) (*ComparisonReport, error) {
	var rep ComparisonReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("driver: decoding comparison report: %w", err)
	}
	if rep.Schema != ComparisonSchema {
		return nil, fmt.Errorf("driver: unsupported comparison schema %q (want %s)", rep.Schema, ComparisonSchema)
	}
	return &rep, nil
}

// reportBuilder accumulates observations during a run. It exists only
// when the caller asked for a report or metrics, so the default path
// pays a single nil check per accounting call.
type reportBuilder struct {
	phaseIdx   map[string]*PhaseBreakdown
	congestion []CongestionPhase
	io         []WriteReport
}

func newReportBuilder() *reportBuilder {
	return &reportBuilder{
		phaseIdx: map[string]*PhaseBreakdown{},
	}
}

// phase returns the accumulator for a domain, creating it on first use.
func (b *reportBuilder) phase(name string, ranks int) *PhaseBreakdown {
	p, ok := b.phaseIdx[name]
	if !ok {
		p = &PhaseBreakdown{Domain: name, Ranks: ranks}
		b.phaseIdx[name] = p
	}
	return p
}

// observeCongestion records the congestion summary of a phase the
// first time its name is seen (repeat evaluations of a phase are
// identical).
func (r *run) observeCongestion(placements []model.Placement) {
	name := phaseName(placements)
	if slices.ContainsFunc(r.rep.congestion, func(c CongestionPhase) bool { return c.Phase == name }) {
		return
	}
	r.rep.congestion = append(r.rep.congestion, CongestionPhase{Phase: name, Congestion: model.PhaseCongestion(r.opt.Machine, r.mp, placements)})
}

// phaseName labels a costs() evaluation: the lone domain, or the
// concurrently communicating sibling set.
func phaseName(placements []model.Placement) string {
	if len(placements) == 1 {
		return placements[0].D.Name
	}
	names := make([]string, len(placements))
	for i, p := range placements {
		names[i] = p.D.Name
	}
	return "siblings(" + strings.Join(names, "+") + ")"
}

// predictedShares returns the allocation policy's predicted relative
// phase times for the root's children: an equal split, point counts,
// or the run's sibling weights.
func (r *run) predictedShares() ([]float64, error) {
	children := r.root.Children
	switch r.opt.Alloc {
	case AllocEqual:
		w := make([]float64, len(children))
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return w, nil
	case AllocNaivePoints:
		w := make([]float64, len(children))
		var sum float64
		for i, c := range children {
			w[i] = float64(c.Points())
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
		return w, nil
	}
	return r.siblingWeights(r.root)
}

// buildReport assembles the final Report after the iteration finished.
func (r *run) buildReport(cfg *nest.Domain, res Result) (*Report, error) {
	b := r.rep
	rep := &Report{
		Schema: ReportSchema,
		Config: ReportConfig{
			Domain:   cfg.Name,
			Machine:  r.opt.Machine.Name,
			Ranks:    r.opt.Ranks,
			Strategy: r.opt.Strategy.String(),
			Mapping:  r.opt.MapKind.String(),
			Alloc:    r.opt.Alloc.String(),
		},
		Totals: ReportTotals{
			IterSeconds:    res.IterTime,
			IOSeconds:      res.IOTime,
			TotalSeconds:   res.Total(),
			WaitAvgSeconds: res.WaitAvg,
			WaitMaxSeconds: res.WaitMax,
			HopsAvg:        res.HopsAvg,
		},
		Congestion: b.congestion,
		IO:         b.io,
	}
	if r.opt.OutputEverySteps > 0 {
		rep.Config.IOMode = r.opt.IOMode.String()
		rep.Config.OutputEverySteps = r.opt.OutputEverySteps
	}
	// Phases in domain-tree order, stable regardless of evaluation
	// order: every phase is accounted under a tree domain's name.
	seen := map[string]bool{}
	cfg.Walk(func(d *nest.Domain) {
		if p, ok := b.phaseIdx[d.Name]; ok && !seen[d.Name] {
			seen[d.Name] = true
			rep.Phases = append(rep.Phases, *p)
		}
	})

	// Predicted vs. realized sibling phase times.
	if len(res.Siblings) > 0 {
		shares, err := r.predictedShares()
		if err != nil {
			return nil, err
		}
		// Work = phase time x ranks; its distribution is what the
		// predictor forecast, independent of how the allocator then
		// spread it over partitions.
		realized, work := realizedShares(res.Siblings)
		for i, s := range res.Siblings {
			sr := SiblingReport{
				Name:         s.Name,
				Ranks:        s.Ranks,
				Rect:         s.Rect,
				PhaseSeconds: s.PhaseTime,
				StepSeconds:  s.StepTime,
			}
			if i < len(shares) && work > 0 && s.Ranks > 0 {
				sr.PredictedShare = shares[i]
				sr.RealizedShare = realized[i]
				sr.PredictedPhaseSeconds = shares[i] * work / float64(s.Ranks)
				if sr.RealizedShare > 0 {
					sr.PredictionErrorPct = 100 * math.Abs(sr.PredictedShare-sr.RealizedShare) / sr.RealizedShare
				}
			}
			rep.Siblings = append(rep.Siblings, sr)
		}
	}
	return rep, nil
}

// Bucket bounds for the link-load histogram metric.
var linkLoadBounds = []float64{1, 2, 4, 8, 16, 32, 64}

// recordMetrics publishes a finished run's report into the registry.
func recordMetrics(reg *metrics.Registry, rep *Report) {
	strat := metrics.L("strategy", rep.Config.Strategy)
	reg.Counter("driver_runs_total", strat, metrics.L("mapping", rep.Config.Mapping), metrics.L("alloc", rep.Config.Alloc)).Inc()
	reg.Gauge("driver_iter_seconds", strat).Set(rep.Totals.IterSeconds)
	reg.Gauge("driver_io_seconds", strat).Set(rep.Totals.IOSeconds)
	reg.Gauge("driver_wait_avg_seconds", strat).Set(rep.Totals.WaitAvgSeconds)
	reg.Gauge("driver_wait_max_seconds", strat).Set(rep.Totals.WaitMaxSeconds)
	reg.Gauge("driver_hops_avg", strat).Set(rep.Totals.HopsAvg)
	for _, p := range rep.Phases {
		dom := metrics.L("domain", p.Domain)
		reg.Counter("driver_phase_seconds", strat, dom, metrics.L("component", "compute")).Add(p.ComputeSeconds)
		reg.Counter("driver_phase_seconds", strat, dom, metrics.L("component", "transfer")).Add(p.TransferSeconds)
		reg.Counter("driver_phase_seconds", strat, dom, metrics.L("component", "wait")).Add(p.WaitSeconds)
	}
	for _, c := range rep.Congestion {
		h := reg.Histogram("netsim_link_load", linkLoadBounds, strat, metrics.L("phase", c.Phase))
		for _, bkt := range c.Histogram {
			for i := 0; i < bkt.Links; i++ {
				h.Observe(float64(bkt.Load))
			}
		}
		reg.Gauge("netsim_max_link_load", strat, metrics.L("phase", c.Phase)).Set(float64(c.MaxLoad))
	}
	for _, w := range rep.IO {
		reg.Counter("iosim_write_bytes_total", strat, metrics.L("domain", w.Domain)).Add(w.Bytes)
		reg.Counter("iosim_write_seconds_total", strat, metrics.L("domain", w.Domain)).Add(w.Seconds)
	}
}
