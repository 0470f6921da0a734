package predict

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"nestwrf/internal/machine"
	"nestwrf/internal/mapping"
	"nestwrf/internal/model"
	"nestwrf/internal/nest"
)

// groundTruth returns a model-backed BG/L profiler on the paper's
// fixed profiling configuration (a small processor count, as in
// Section 3.1: "experiments on a fixed number of processors").
func groundTruth(t *testing.T, ranks int) Profiler {
	return machineProfiler(t, machine.BGL(), ranks)
}

// machineProfiler is groundTruth on any machine.
func machineProfiler(t *testing.T, m machine.Machine, ranks int) Profiler {
	t.Helper()
	g, err := machine.GridFor(ranks)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := machine.TorusFor(ranks)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mapping.Sequential(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	return func(nx, ny int) float64 {
		return model.SingleDomainStep(m, mp, nest.Root("probe", nx, ny)).Time()
	}
}

func fitDefault(t *testing.T) (*Model, []Sample, Profiler) {
	t.Helper()
	prof := groundTruth(t, 64)
	samples := Profile(DefaultBasis(), prof)
	m, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	return m, samples, prof
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("empty: %v", err)
	}
	bad := []Sample{{1, 100, 1}, {1.2, 200, -1}, {0.8, 300, 2}}
	if _, err := Fit(bad); !errors.Is(err, ErrBadSample) {
		t.Errorf("negative time: %v", err)
	}
	flat := []Sample{{1, 100, 1}, {1, 200, 2}, {1, 300, 3}}
	if _, err := Fit(flat); !errors.Is(err, ErrBadSample) {
		t.Errorf("degenerate aspect range: %v", err)
	}
}

// A NaN or infinite feature or time is refused: `x <= 0` is false for
// NaN, so such samples used to reach the triangulation.
func TestFitRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []Sample{
		{nan, 150, 1.5}, {1.1, nan, 1.5}, {1.1, 150, nan},
		{inf, 150, 1.5}, {1.1, inf, 1.5}, {1.1, 150, inf},
	} {
		samples := []Sample{{1, 100, 1}, {1.2, 200, 2}, {0.8, 300, 2}, bad}
		if _, err := Fit(samples); !errors.Is(err, ErrBadSample) {
			t.Errorf("Fit with %+v: err = %v, want ErrBadSample", bad, err)
		}
	}
}

func TestPredictReproducesSamples(t *testing.T) {
	m, samples, _ := fitDefault(t)
	for i, s := range samples {
		got := m.Predict(s.Aspect, s.Points)
		if RelErr(got, s.Time) > 1e-6 {
			t.Errorf("sample %d: predicted %v, measured %v", i, got, s.Time)
		}
	}
}

// The headline claim of Section 3.1: less than 6% prediction error on
// test domains with 55,900-94,990 points and aspect 0.5-1.5.
func TestPredictionErrorUnder6Percent(t *testing.T) {
	m, _, prof := fitDefault(t)
	rng := rand.New(rand.NewSource(42))
	worst := 0.0
	for trial := 0; trial < 100; trial++ {
		points := 55900 + rng.Float64()*(94990-55900)
		aspect := 0.5 + rng.Float64()
		nx := int(math.Round(math.Sqrt(points * aspect)))
		ny := int(math.Round(float64(nx) / aspect))
		truth := prof(nx, ny)
		got := m.Predict(float64(nx)/float64(ny), float64(nx*ny))
		if e := RelErr(got, truth); e > worst {
			worst = e
		}
	}
	t.Logf("worst relative error over 100 test domains: %.2f%%", worst*100)
	if worst > 0.06 {
		t.Errorf("worst prediction error %.2f%% exceeds the paper's 6%%", worst*100)
	}
}

// "We also tested by scaling up the number of points in each sibling,
// while retaining the aspect ratio": out-of-hull domains must still
// give useful relative predictions.
func TestScaleDownExtrapolation(t *testing.T) {
	m, _, prof := fitDefault(t)
	// 586x643, 856x919, 925x850: the large siblings of Fig. 10.
	shapes := [][2]int{{586, 643}, {856, 919}, {925, 850}}
	var preds, truths []float64
	for _, s := range shapes {
		preds = append(preds, m.Predict(float64(s[0])/float64(s[1]), float64(s[0]*s[1])))
		truths = append(truths, prof(s[0], s[1]))
	}
	// Relative times are what matters for allocation: compare ratios.
	for i := 1; i < len(shapes); i++ {
		predRatio := preds[i] / preds[0]
		truthRatio := truths[i] / truths[0]
		if RelErr(predRatio, truthRatio) > 0.15 {
			t.Errorf("shape %d: predicted ratio %v vs true ratio %v", i, predRatio, truthRatio)
		}
	}
}

// The naive univariate models must be clearly worse than interpolation
// (the paper reports >19% for the proportional strawman).
func TestNaiveModelsAreWorse(t *testing.T) {
	m, samples, prof := fitDefault(t)
	prop, err := FitProportional(samples)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := FitLinear(samples)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var worstOurs, worstProp, worstLin float64
	for trial := 0; trial < 200; trial++ {
		// Test across the full profiled region, including the small
		// domains where a proportional model misses the fixed costs.
		points := 12000 + rng.Float64()*(184000-12000)
		aspect := 0.5 + rng.Float64()
		nx := int(math.Round(math.Sqrt(points * aspect)))
		ny := int(math.Round(float64(nx) / aspect))
		truth := prof(nx, ny)
		p := float64(nx * ny)
		worstOurs = math.Max(worstOurs, RelErr(m.Predict(float64(nx)/float64(ny), p), truth))
		worstProp = math.Max(worstProp, RelErr(prop.Predict(p), truth))
		worstLin = math.Max(worstLin, RelErr(lin.Predict(p), truth))
	}
	t.Logf("worst errors: interpolation %.2f%%, proportional %.2f%%, linear %.2f%%",
		worstOurs*100, worstProp*100, worstLin*100)
	if worstProp < 0.15 {
		t.Errorf("proportional model error %.2f%% suspiciously low (paper: >19%%)", worstProp*100)
	}
	if worstOurs >= worstProp || worstOurs >= worstLin {
		t.Errorf("interpolation (%.2f%%) must beat proportional (%.2f%%) and linear (%.2f%%)",
			worstOurs*100, worstProp*100, worstLin*100)
	}
}

// TestPredictProperties checks Predict's two documented regimes on the
// BG/L and BG/P predictors over seeded queries: inside the profiled
// hull the result lies within the containing triangle's vertex-time
// range, and outside the profiled ranges it is the clamped query's
// prediction scaled by points/clamp(points). Both hold exactly: no
// query of either machine needed a tolerance.
func TestPredictProperties(t *testing.T) {
	for _, mach := range []machine.Machine{machine.BGL(), machine.BGP()} {
		m, err := Fit(Profile(DefaultBasis(), machineProfiler(t, mach, 64)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(36))
		inHull := 0
		for q := 0; q < 2000; q++ {
			aspect := m.minAsp + rng.Float64()*(m.maxAsp-m.minAsp)
			points := m.minPts + rng.Float64()*(m.maxPts-m.minPts)
			ti, _, ok := m.tri.Locate(m.normalize(aspect, points))
			if !ok {
				continue // in the ranges' rectangle, outside the hull
			}
			inHull++
			tri := m.tri.Triangles[ti]
			a, b, c := m.times[tri.A], m.times[tri.B], m.times[tri.C]
			lo, hi := math.Min(a, math.Min(b, c)), math.Max(a, math.Max(b, c))
			if got := m.Predict(aspect, points); got < lo || got > hi {
				t.Errorf("%s: Predict(%v, %v) = %v outside its triangle's times [%v, %v]",
					mach.Name, aspect, points, got, lo, hi)
			}
		}
		if inHull < 1000 {
			t.Errorf("%s: only %d of 2000 in-range queries fell inside the hull", mach.Name, inHull)
		}
		for q := 0; q < 2000; q++ {
			// Aspect 0.1-3.0 and points 1 000-1 000 000, log-uniform in
			// points: most queries leave the profiled ranges.
			aspect := 0.1 + rng.Float64()*2.9
			points := 1000 * math.Pow(1000, rng.Float64())
			ca, cp := clamp(aspect, m.minAsp, m.maxAsp), clamp(points, m.minPts, m.maxPts)
			if ca == aspect && cp == points {
				continue
			}
			want := m.Predict(ca, cp)
			if cp != points {
				want = want * points / cp // a factor of 1 is not applied
			}
			if got := m.Predict(aspect, points); got != want {
				t.Errorf("%s: Predict(%v, %v) = %v, want Predict(%v, %v)·%v/%v = %v",
					mach.Name, aspect, points, got, ca, cp, points, cp, want)
			}
		}
	}
}

func TestWeightsNormalized(t *testing.T) {
	m, _, _ := fitDefault(t)
	domains := []*nest.Domain{
		nest.Root("a", 394, 418),
		nest.Root("b", 232, 202),
		nest.Root("c", 232, 256),
		nest.Root("d", 313, 337),
	}
	w := m.Weights(domains)
	var sum float64
	for _, v := range w {
		if v <= 0 {
			t.Errorf("weight %v not positive", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
	// The largest domain must get the largest weight.
	if !(w[0] > w[1] && w[0] > w[2] && w[0] > w[3]) {
		t.Errorf("weights %v: 394x418 should dominate", w)
	}
}

func TestPredictZeroPoints(t *testing.T) {
	m, _, _ := fitDefault(t)
	if m.Predict(1.0, 0) != 0 {
		t.Error("zero points should predict 0")
	}
}

func TestFitNaiveErrors(t *testing.T) {
	if _, err := FitProportional(nil); err == nil {
		t.Error("empty proportional fit should fail")
	}
	if _, err := FitLinear([]Sample{{1, 1, 1}}); err == nil {
		t.Error("single-sample linear fit should fail")
	}
	if _, err := FitLinear([]Sample{{1, 100, 1}, {1, 100, 2}}); err == nil {
		t.Error("degenerate linear fit should fail")
	}
	if _, err := FitProportional([]Sample{{1, 0, 1}}); err == nil {
		t.Error("zero-points proportional fit should fail")
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(110, 100) != 0.1 {
		t.Error("RelErr wrong")
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr with zero truth should be +Inf")
	}
}

func TestDefaultBasisCoverage(t *testing.T) {
	shapes := DefaultBasis()
	if len(shapes) != 13 {
		t.Fatalf("basis has %d shapes, want 13 as in the paper", len(shapes))
	}
	minAsp, maxAsp := math.Inf(1), math.Inf(-1)
	minPts, maxPts := math.Inf(1), math.Inf(-1)
	for _, s := range shapes {
		a := float64(s.NX) / float64(s.NY)
		p := float64(s.NX * s.NY)
		minAsp, maxAsp = math.Min(minAsp, a), math.Max(maxAsp, a)
		minPts, maxPts = math.Min(minPts, p), math.Max(maxPts, p)
	}
	if minAsp > 0.51 || maxAsp < 1.49 {
		t.Errorf("aspect coverage [%v, %v] should span [0.5, 1.5]", minAsp, maxAsp)
	}
	if minPts > 12000 || maxPts < 184000 {
		t.Errorf("points coverage [%v, %v] should span the paper's size range", minPts, maxPts)
	}
}

func TestCrossValidate(t *testing.T) {
	_, samples, _ := fitDefault(t)
	errs, err := CrossValidate(samples)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := InteriorMask(samples)
	if err != nil {
		t.Fatal(err)
	}
	var intSum, hullSum float64
	var intN, hullN int
	for i, e := range errs {
		if mask[i] {
			intSum += e
			intN++
		} else {
			hullSum += e
			hullN++
		}
	}
	if intN == 0 || hullN == 0 {
		t.Fatalf("mask degenerate: %d interior, %d hull", intN, hullN)
	}
	intMean := intSum / float64(intN)
	hullMean := hullSum / float64(hullN)
	t.Logf("LOOCV: interior mean %.2f%% (%d samples), hull mean %.2f%% (%d samples)",
		intMean*100, intN, hullMean*100, hullN)
	// Interior leave-one-out predictions are interpolations and must be
	// accurate; hull samples extrapolate and are expected to be worse.
	if intMean > 0.10 {
		t.Errorf("interior LOOCV mean %.2f%% too high", intMean*100)
	}
	if hullMean < intMean {
		t.Errorf("hull LOOCV %.2f%% should exceed interior %.2f%%", hullMean*100, intMean*100)
	}
	if _, err := CrossValidate(samples[:3]); err == nil {
		t.Error("too few samples should fail")
	}
	if _, err := InteriorMask(samples[:3]); err == nil {
		t.Error("too few samples should fail for mask")
	}
}
