// Package nestwrf reproduces "A divide and conquer strategy for
// scaling weather simulations with multiple regions of interest"
// (Malakar et al., SC 2012): concurrent execution of nested weather
// simulation domains on disjoint rectangular processor partitions,
// sized by an interpolation-based performance model and placed on 3D
// torus networks with topology-aware mappings.
//
// The package is the public facade over the internal substrates:
//
//   - Performance prediction (Section 3.1): Delaunay-interpolated
//     execution times over the (aspect ratio, point count) plane.
//   - Processor allocation (Section 3.2, Algorithm 1): Huffman-tree
//     recursive bisection of the virtual processor grid.
//   - Topology-aware mapping (Section 3.3): partition and multi-level
//     2D-to-3D torus mappings.
//   - A virtual-time Blue Gene simulator (machines, torus network with
//     contention, parallel I/O) on which every table and figure of the
//     paper's evaluation is regenerated, and a functional shallow-water
//     mini-WRF on a goroutine-based MPI runtime for end-to-end
//     validation.
//
// # Quick start
//
//	cfg := nestwrf.NewDomain("pacific", 286, 307)
//	cfg.AddChild("typhoon1", 394, 418, 3, 5, 5)
//	cfg.AddChild("typhoon2", 313, 337, 3, 140, 150)
//
//	opt := nestwrf.Options{
//	    Machine: nestwrf.BlueGeneL(), Ranks: 1024,
//	    Strategy: nestwrf.StrategyConcurrent, MapKind: nestwrf.MapMultiLevel,
//	}
//	plan, err := nestwrf.Plan(cfg, opt)
//	// plan.Weights: predicted time shares; plan.Rects: partitions
//
//	cmp, err := nestwrf.Compare(cfg, opt)
//	// cmp.ImprovementPct: gain of the paper's strategy over default WRF
package nestwrf

import (
	"io"

	"nestwrf/internal/alloc"
	"nestwrf/internal/campaign"
	"nestwrf/internal/driver"
	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/metrics"
	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/netsim"
	"nestwrf/internal/output"
	"nestwrf/internal/solver"
	"nestwrf/internal/telemetry"
	"nestwrf/internal/wrfsim"
)

// Domain is a simulation domain tree: a parent with nested children
// ("siblings" at the same level). See NewDomain and Domain.AddChild.
type Domain = nest.Domain

// NewDomain constructs a top-level (parent) domain of nx x ny grid
// points.
func NewDomain(name string, nx, ny int) *Domain { return nest.Root(name, nx, ny) }

// Machine describes a simulated system (Blue Gene/L or /P).
type Machine = machine.Machine

// BlueGeneL returns the Blue Gene/L machine model of the paper's
// Section 4.2.1.
func BlueGeneL() Machine { return machine.BGL() }

// BlueGeneP returns the Blue Gene/P machine model of the paper's
// Section 4.2.2.
func BlueGeneP() Machine { return machine.BGP() }

// Rect is a rectangular processor-grid partition.
type Rect = alloc.Rect

// Options configure a simulated run (see Simulate).
type Options = driver.Options

// Result is a simulated run's per-iteration metrics.
type Result = driver.Result

// Strategy selects sequential (default WRF) or concurrent (the paper's)
// sibling execution.
type Strategy = driver.Strategy

// Strategies.
const (
	StrategySequential = driver.Sequential
	StrategyConcurrent = driver.Concurrent
)

// MapKind selects the rank-to-torus mapping.
type MapKind = driver.MapKind

// Mappings of Section 3.3.
const (
	MapOblivious  = driver.MapSequential
	MapTXYZ       = driver.MapTXYZ
	MapPartition  = driver.MapPartition
	MapMultiLevel = driver.MapMultiLevel
)

// AllocPolicy selects the partition-sizing policy.
type AllocPolicy = driver.AllocPolicy

// Allocation policies of Sections 3.2 and 4.6.
const (
	AllocPredicted       = driver.AllocPredicted
	AllocNaivePoints     = driver.AllocNaivePoints
	AllocEqual           = driver.AllocEqual
	AllocStripsPredicted = driver.AllocStripsPredicted
)

// I/O modes of the evaluation platforms.
const (
	IOCollective = iosim.Collective // PnetCDF (BG/P)
	IOSplit      = iosim.Split      // split files (BG/L)
)

// ParseIOMode parses an I/O mode name ("pnetcdf"/"collective" or
// "split", any case), the inverse of the mode's String.
func ParseIOMode(s string) (iosim.Mode, error) { return iosim.ParseMode(s) }

// ParseMapKind parses a mapping name ("oblivious", "txyz", "partition"
// or "multilevel", any case), the inverse of the kind's String.
func ParseMapKind(s string) (MapKind, error) { return driver.ParseMapKind(s) }

// ParseAllocPolicy parses an allocation-policy name ("predicted",
// "naive-points", "equal" or "strips-predicted", any case), the
// inverse of the policy's String.
func ParseAllocPolicy(s string) (AllocPolicy, error) { return driver.ParseAllocPolicy(s) }

// ExecutionPlan is the outcome of the paper's pipeline for one
// configuration: predicted sibling weights, the processor partitions of
// the allocation policy, the mapping quality on the machine's torus
// (Mapping, keyed by mapping name) and the predicted per-iteration cost.
type ExecutionPlan = driver.Plan

// Plan runs performance prediction, processor allocation under
// opt.Alloc and mapping analysis for cfg on opt's machine and rank
// count. The partitions are the same under either strategy; opt.Strategy
// and opt.MapKind select what the plan's Cost prices.
func Plan(cfg *Domain, opt Options) (*ExecutionPlan, error) { return driver.BuildPlan(cfg, opt) }

// Simulate runs one configuration under the given options on the
// virtual-time simulator and returns per-iteration metrics.
func Simulate(cfg *Domain, opt Options) (Result, error) { return driver.Run(cfg, opt) }

// Comparison contrasts the default sequential strategy with the
// paper's concurrent strategy under identical options.
type Comparison = driver.Comparison

// Compare runs cfg under both strategies (the given options select the
// machine, rank count, mapping, allocation and I/O settings) and
// reports the improvements the paper's tables quote.
func Compare(cfg *Domain, opt Options) (Comparison, error) { return driver.Compare(cfg, opt) }

// FunctionalOptions configure a functional run of the mini-WRF on the
// goroutine MPI runtime; Rects take an ExecutionPlan's partitions.
type FunctionalOptions = wrfsim.Options

// AlphaBeta is the latency/bandwidth virtual transfer-time model of the
// functional MPI runtime.
type AlphaBeta = mpi.AlphaBeta

// TimeModel computes virtual transfer durations for the functional MPI
// runtime.
type TimeModel = mpi.TimeModel

// NewTopologyTimeModel returns a transfer-time model for RunFunctional
// whose per-message cost follows the hop distance of the given mapping
// on the machine's torus — the functional counterpart of the paper's
// topology-aware placement. rects are needed only for MapPartition.
func NewTopologyTimeModel(kind MapKind, m Machine, ranks int, rects []Rect) (TimeModel, error) {
	mp, err := driver.MappingFor(kind, m, ranks, rects)
	if err != nil {
		return nil, err
	}
	if err := m.Net.Validate(); err != nil {
		return nil, err
	}
	return &topologyTime{m: mp, params: m.Net}, nil
}

// topologyTime bridges the functional MPI runtime and the torus
// topology model: per-message costs depend on the hop distance between
// the communicating ranks under a concrete rank-to-torus mapping, so
// running the functional mini-WRF with two mappings shows the paper's
// topology-aware placement claim end to end — same forecast, less
// virtual time under the fold.
type topologyTime struct {
	m      *mapping.Mapping
	params netsim.Params
}

// Transfer implements TimeModel: the network's price of an
// uncontended message between the mapped torus nodes of the two ranks,
// the one the phase-cost model charges. Ranks outside the mapping
// (should not happen in a consistent run) are charged the torus
// diameter.
func (t *topologyTime) Transfer(src, dst, bytes int) float64 {
	tor := t.m.Torus
	hops := tor.X/2 + tor.Y/2 + tor.Z/2
	if n := t.m.Grid.Size(); src >= 0 && src < n && dst >= 0 && dst < n {
		hops = t.m.Hops(src, dst)
	}
	return t.params.MessageTime(hops, 1, bytes)
}

// FunctionalOutput is a functional run's final fields and virtual-time
// metrics.
type FunctionalOutput = wrfsim.Output

// RunFunctional executes the functional mini-WRF: real shallow-water
// numerics with nesting, halo exchanges and communicator splits. Both
// strategies produce matching fields; the concurrent one finishes in
// less virtual time.
func RunFunctional(cfg *Domain, opt FunctionalOptions) (*FunctionalOutput, error) {
	return wrfsim.Run(cfg, opt)
}

// CampaignPhase is one segment of a multi-day forecast campaign: a
// domain configuration active for a number of parent iterations.
type CampaignPhase = campaign.Phase

// CampaignResult aggregates a campaign's totals, including the
// concurrent strategy's partition-redistribution costs.
type CampaignResult = campaign.Result

// SolverParams are the functional solver's integration parameters.
type SolverParams = solver.Params

// GeophysicalSolverParams returns rotating (Coriolis) shallow-water
// parameters for cyclone-like demonstrations.
func GeophysicalSolverParams() SolverParams { return solver.GeophysicalParams() }

// ForecastState is a full-domain field snapshot from the functional
// simulator.
type ForecastState = solver.State

// ForecastField selects a state variable for rendering.
type ForecastField = output.Field

// Forecast output fields for rendering.
const (
	FieldHeight    = output.FieldH
	FieldMomentumU = output.FieldHU
	FieldMomentumV = output.FieldHV
	FieldSpeed     = output.FieldSpeed
)

// EncodeForecast writes a domain state as one record of the library's
// self-describing binary forecast format (the wrfout stand-in).
func EncodeForecast(w io.Writer, domain string, step int, st *ForecastState) error {
	return output.Encode(w, output.Snapshot{Domain: domain, Step: step, State: st})
}

// DecodeForecast reads one forecast record.
func DecodeForecast(r io.Reader) (domain string, step int, st *ForecastState, err error) {
	s, err := output.Decode(r)
	if err != nil {
		return "", 0, nil, err
	}
	return s.Domain, s.Step, s.State, nil
}

// WriteForecastPGM renders a state field as a binary PGM greymap.
func WriteForecastPGM(w io.Writer, st *ForecastState, field ForecastField) error {
	return output.WritePGM(w, st, field)
}

// ForecastASCII renders a coarse terminal heatmap of a state field.
func ForecastASCII(st *ForecastState, field ForecastField, width int) string {
	return output.ASCIIArt(st, field, width)
}

// PartitionsSVG renders an execution plan's processor partitions as an
// SVG diagram, the counterpart of the paper's Fig. 3(b).
func PartitionsSVG(plan *ExecutionPlan) string {
	return output.PartitionsSVG(plan.Rects, plan.Px, plan.Py)
}

// RenderMapping draws the given mapping kind for a machine size as one
// rank grid per torus z-plane (the textual counterpart of the paper's
// Figs. 5-6); rects are needed only for the partition mapping.
func RenderMapping(kind MapKind, m Machine, ranks int, rects []Rect) (string, error) {
	mp, err := driver.MappingFor(kind, m, ranks, rects)
	if err != nil {
		return "", err
	}
	return mp.RenderPlanes(), nil
}

// TraceLog is a recorded virtual-time schedule (see TraceIteration):
// the same span dump a tracer produces, timed in virtual seconds.
type TraceLog = telemetry.Dump

// TraceIteration reconstructs the virtual-time schedule of one
// iteration from a Result, renderable as a text Gantt chart with
// TraceLog.Render.
func TraceIteration(res Result, strategy Strategy) *TraceLog {
	return driver.TraceIteration(res, strategy)
}

// MetricsRegistry collects run-level counters, gauges and histograms;
// set Options.Metrics to one to have Simulate record into it, and
// render with its Snapshot().Text(). A nil registry is a valid no-op
// sink.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty, race-safe metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Report is the structured record of one simulated run: configuration,
// totals, per-domain phase breakdowns (compute / transfer / wait /
// coupling), per-sibling predicted-vs-realized shares, link-congestion
// summaries and I/O events, under the stable JSON schema
// "nestwrf/run-report/v1".
type Report = driver.Report

// ComparisonReport pairs both strategies' run reports with the
// headline improvements, under "nestwrf/compare-report/v1".
type ComparisonReport = driver.ComparisonReport

// SimulateWithReport is Simulate plus the structured run report.
func SimulateWithReport(cfg *Domain, opt Options) (Result, *Report, error) {
	return driver.RunWithReport(cfg, opt)
}

// CompareWithReport is Compare plus the structured comparison report
// (both strategies' full reports and the improvement headlines).
func CompareWithReport(cfg *Domain, opt Options) (Comparison, *ComparisonReport, error) {
	var reps []*Report // baseline, then concurrent
	cmp, err := driver.RunBoth(cfg, opt, func(cfg *Domain, opt Options) (Result, error) {
		res, rep, err := driver.RunWithReport(cfg, opt)
		reps = append(reps, rep)
		return res, err
	})
	if err != nil {
		return Comparison{}, nil, err
	}
	return cmp, driver.NewComparisonReport(reps[0], reps[1]), nil
}

// TraceProcess names one TraceLog for Chrome trace export.
type TraceProcess = telemetry.Process

// WriteChromeTrace serializes trace logs in the Chrome trace-event
// JSON format, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing; each process becomes its own track group.
func WriteChromeTrace(w io.Writer, procs ...TraceProcess) error {
	return telemetry.WriteChrome(w, procs...)
}

// RunCampaign simulates a campaign whose regions of interest change
// over time (nests spawning and retiring), re-planning the processor
// allocation at each change — the dynamic extension of the paper's
// strategy.
func RunCampaign(phases []CampaignPhase, opt Options) (CampaignResult, error) {
	return campaign.Run(phases, opt)
}

// SteerOutcome reports a steering session's rounds and final result.
type SteerOutcome = driver.SteerOutcome

// Steer runs closed-loop allocation steering (the paper's future-work
// item): the configuration executes concurrently, the siblings' phase
// times are measured, and the partition is corrected until the
// imbalance is within 5 % or rounds runs have been made.
func Steer(cfg *Domain, opt Options, rounds int) (SteerOutcome, error) {
	return driver.Steer(cfg, opt, rounds)
}

// TyphoonSeason returns a five-phase Pacific typhoon-season storyline
// (formation, pairing, peak, landfall, decay) with the given number of
// parent iterations per phase.
func TyphoonSeason(stepsPerPhase int) []CampaignPhase {
	return campaign.Season(stepsPerPhase)
}
