// Package predict implements the paper's performance-prediction model
// (Section 3.1): the execution time of a nested simulation is
// interpolated from a small set of profiled domains using barycentric
// coordinates over a Delaunay triangulation in the
// (aspect-ratio, total-points) feature plane. Domains outside the
// profiled convex hull are scaled into the region of coverage first,
// which preserves relative execution times (the only thing processor
// allocation needs).
//
// Two naive baselines are provided for the paper's comparisons: a
// proportional model (time ~ points, the ">19% error" strawman) and a
// univariate least-squares linear model.
package predict

import (
	"errors"
	"fmt"
	"math"

	"nestwrf/internal/geom"
	"nestwrf/internal/nest"
)

// Sample is one profiling observation: a domain's features and its
// measured execution time per sub-step.
type Sample struct {
	Aspect float64 // nx/ny
	Points float64 // nx*ny
	Time   float64 // seconds
}

// Errors returned by the fitters.
var (
	ErrTooFewSamples = errors.New("predict: need at least 3 samples")
	ErrBadSample     = errors.New("predict: samples must have positive finite features and time")
)

// Model is the Delaunay-interpolation predictor.
type Model struct {
	tri     *geom.Triangulation
	times   []float64
	minAsp  float64
	maxAsp  float64
	minPts  float64
	maxPts  float64
	aspSpan float64
	ptsSpan float64
}

// Fit builds the predictor from profiling samples. The features are
// normalized to the unit square before triangulation so that the very
// different scales of aspect (~1) and points (~10^5) do not skew the
// Delaunay construction.
func Fit(samples []Sample) (*Model, error) {
	if len(samples) < 3 {
		return nil, ErrTooFewSamples
	}
	m := &Model{
		minAsp: math.Inf(1), maxAsp: math.Inf(-1),
		minPts: math.Inf(1), maxPts: math.Inf(-1),
	}
	for i, s := range samples {
		if !positiveFinite(s.Aspect) || !positiveFinite(s.Points) || !positiveFinite(s.Time) {
			return nil, fmt.Errorf("%w: sample %d = %+v", ErrBadSample, i, s)
		}
		m.minAsp = math.Min(m.minAsp, s.Aspect)
		m.maxAsp = math.Max(m.maxAsp, s.Aspect)
		m.minPts = math.Min(m.minPts, s.Points)
		m.maxPts = math.Max(m.maxPts, s.Points)
	}
	m.aspSpan = m.maxAsp - m.minAsp
	m.ptsSpan = m.maxPts - m.minPts
	if m.aspSpan == 0 || m.ptsSpan == 0 {
		return nil, fmt.Errorf("%w: degenerate feature range", ErrBadSample)
	}
	pts := make([]geom.Point, len(samples))
	m.times = make([]float64, len(samples))
	for i, s := range samples {
		pts[i] = m.normalize(s.Aspect, s.Points)
		m.times[i] = s.Time
	}
	tri, err := geom.Delaunay(pts)
	if err != nil {
		return nil, fmt.Errorf("predict: triangulating samples: %w", err)
	}
	m.tri = tri
	return m, nil
}

func (m *Model) normalize(aspect, points float64) geom.Point {
	return geom.Pt((aspect-m.minAsp)/m.aspSpan, (points-m.minPts)/m.ptsSpan)
}

// Predict returns the predicted execution time for a domain with the
// given aspect ratio and total point count. Queries outside the
// profiled region are clamped in aspect and scaled in points: the
// prediction at the coverage boundary is extrapolated linearly in the
// point count, matching the paper's scale-down approach for larger
// domains.
func (m *Model) Predict(aspect, points float64) float64 {
	if points <= 0 {
		return 0
	}
	a := clamp(aspect, m.minAsp, m.maxAsp)
	p := clamp(points, m.minPts, m.maxPts)
	base := m.interior(a, p)
	if p == points {
		return base
	}
	// Scale-down (or up) extrapolation: relative times follow the point
	// count to first order.
	return base * points / p
}

// PredictDomain predicts for a nest domain.
func (m *Model) PredictDomain(d *nest.Domain) float64 {
	return m.Predict(d.Aspect(), float64(d.Points()))
}

// interior interpolates within (or on the numeric boundary of) the
// profiled region.
func (m *Model) interior(aspect, points float64) float64 {
	q := m.normalize(aspect, points)
	if ti, bc, ok := m.tri.Locate(q); ok {
		t := m.tri.Triangles[ti]
		return bc.Clamp().Interpolate(m.times[t.A], m.times[t.B], m.times[t.C])
	}
	// The clamped query can fall just outside the hull when the hull is
	// not the full bounding rectangle. Use the triangle whose clamped
	// barycentric interpolation point is nearest the query.
	bestD := math.Inf(1)
	var best float64
	for _, t := range m.tri.Triangles {
		a, b, c := m.tri.Points[t.A], m.tri.Points[t.B], m.tri.Points[t.C]
		bc := geom.BarycentricCoords(a, b, c, q).Clamp()
		proj := a.Scale(bc.L1).Add(b.Scale(bc.L2)).Add(c.Scale(bc.L3))
		if d := proj.Dist2(q); d < bestD {
			bestD = d
			best = bc.Interpolate(m.times[t.A], m.times[t.B], m.times[t.C])
		}
	}
	return best
}

// Weights returns the predicted relative execution times of the given
// domains, normalized to sum to 1 — the input of the processor
// allocation of Section 3.2.
func (m *Model) Weights(domains []*nest.Domain) []float64 {
	w := make([]float64, len(domains))
	var sum float64
	for i, d := range domains {
		w[i] = m.PredictDomain(d)
		sum += w[i]
	}
	if sum > 0 {
		for i := range w {
			w[i] /= sum
		}
	}
	return w
}

// Proportional is the naive model the paper dismisses: execution time
// directly proportional to the domain's point count.
type Proportional struct {
	PerPoint float64
}

// FitProportional fits time = c * points by least squares through the
// origin.
func FitProportional(samples []Sample) (*Proportional, error) {
	if len(samples) == 0 {
		return nil, ErrTooFewSamples
	}
	var num, den float64
	for _, s := range samples {
		num += s.Points * s.Time
		den += s.Points * s.Points
	}
	if den == 0 {
		return nil, ErrBadSample
	}
	return &Proportional{PerPoint: num / den}, nil
}

// Predict returns the proportional-model prediction.
func (p *Proportional) Predict(points float64) float64 { return p.PerPoint * points }

// Linear is a univariate least-squares model time = a + b*points.
type Linear struct {
	Intercept, Slope float64
}

// FitLinear fits the univariate linear model.
func FitLinear(samples []Sample) (*Linear, error) {
	n := float64(len(samples))
	if len(samples) < 2 {
		return nil, ErrTooFewSamples
	}
	var sx, sy, sxx, sxy float64
	for _, s := range samples {
		sx += s.Points
		sy += s.Time
		sxx += s.Points * s.Points
		sxy += s.Points * s.Time
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return nil, ErrBadSample
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	return &Linear{Intercept: a, Slope: b}, nil
}

// Predict returns the linear-model prediction.
func (l *Linear) Predict(points float64) float64 { return l.Intercept + l.Slope*points }

// BasisShape is a profiling domain shape.
type BasisShape struct {
	NX, NY int
}

// DefaultBasis returns the 13 profiling domain shapes used to train the
// predictor, covering the paper's workload region: domain sizes from
// 94x124 to 415x445 (11,656 to 184,675 points) and aspect ratios from
// 0.5 to 1.5 — three aspect levels at three point levels plus four
// interior fill points, chosen so the region triangulates well
// (Section 3.1: the 13 points "nicely cover the rectangular region").
func DefaultBasis() []BasisShape {
	return []BasisShape{
		// aspect ~0.5: small, medium, large
		{77, 155}, {187, 375}, {304, 608},
		// aspect ~1.0
		{108, 108}, {265, 265}, {430, 430},
		// aspect ~1.5
		{132, 88}, {324, 216}, {527, 351},
		// interior fill
		{173, 231}, {224, 179}, {300, 400}, {387, 310},
	}
}

// Profiler measures (or models) the per-sub-step execution time of an
// nx x ny domain on the fixed profiling processor configuration.
type Profiler func(nx, ny int) float64

// Profile runs the profiler over the basis shapes and returns samples.
func Profile(shapes []BasisShape, prof Profiler) []Sample {
	out := make([]Sample, len(shapes))
	for i, s := range shapes {
		out[i] = Sample{
			Aspect: float64(s.NX) / float64(s.NY),
			Points: float64(s.NX * s.NY),
			Time:   prof(s.NX, s.NY),
		}
	}
	return out
}

// CrossValidate estimates the model's accuracy by leave-one-out
// cross-validation over the profiling samples: each sample is predicted
// from a model fitted on the others. It returns the per-sample relative
// errors, aligned with the input.
//
// Interpretation caveat: a sample on the convex hull of the feature set
// must be *extrapolated* when left out (aspect clamping plus the linear
// points scale-down, which misses the fixed per-step costs at the small
// end), so hull samples carry much larger LOOCV errors than the
// interior interpolation error the paper quotes. Use InteriorMask to
// separate the two regimes.
func CrossValidate(samples []Sample) ([]float64, error) {
	if len(samples) < 4 {
		return nil, ErrTooFewSamples
	}
	errs := make([]float64, len(samples))
	for i := range samples {
		rest := make([]Sample, 0, len(samples)-1)
		rest = append(rest, samples[:i]...)
		rest = append(rest, samples[i+1:]...)
		m, err := Fit(rest)
		if err != nil {
			return nil, err
		}
		errs[i] = RelErr(m.Predict(samples[i].Aspect, samples[i].Points), samples[i].Time)
	}
	return errs, nil
}

// InteriorMask reports, for each sample, whether it lies strictly
// inside the convex hull of the other samples' feature points — i.e.
// whether its leave-one-out prediction is an interpolation rather than
// an extrapolation.
func InteriorMask(samples []Sample) ([]bool, error) {
	if len(samples) < 4 {
		return nil, ErrTooFewSamples
	}
	mask := make([]bool, len(samples))
	for i := range samples {
		rest := make([]Sample, 0, len(samples)-1)
		rest = append(rest, samples[:i]...)
		rest = append(rest, samples[i+1:]...)
		m, err := Fit(rest)
		if err != nil {
			return nil, err
		}
		q := m.normalize(samples[i].Aspect, samples[i].Points)
		_, _, ok := m.tri.Locate(q)
		mask[i] = ok &&
			samples[i].Aspect > m.minAsp && samples[i].Aspect < m.maxAsp &&
			samples[i].Points > m.minPts && samples[i].Points < m.maxPts
	}
	return mask, nil
}

// RelErr returns |pred-truth|/truth.
func RelErr(pred, truth float64) float64 {
	if truth == 0 {
		return math.Inf(1)
	}
	return math.Abs(pred-truth) / truth
}

// positiveFinite reports whether x is positive and finite (false for
// NaN, which every comparison rejects).
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
