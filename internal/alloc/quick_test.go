package alloc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickInputs generates (weights, px, py) tuples with 1-6 positive
// weights on modest power-of-two-ish grids.
func quickInputs(vals []reflect.Value, rng *rand.Rand) {
	k := 1 + rng.Intn(6)
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = 0.05 + rng.Float64()*5
	}
	grids := [][2]int{{8, 8}, {16, 8}, {16, 16}, {32, 16}, {32, 32}, {12, 10}, {64, 32}}
	g := grids[rng.Intn(len(grids))]
	vals[0] = reflect.ValueOf(weights)
	vals[1] = reflect.ValueOf(g[0])
	vals[2] = reflect.ValueOf(g[1])
}

// Property: Partition always tiles the grid exactly, with every
// rectangle non-empty and area deviation bounded.
func TestQuickPartitionTiles(t *testing.T) {
	f := func(weights []float64, px, py int) bool {
		rects, err := Partition(weights, px, py)
		if err != nil {
			return false
		}
		if err := Validate(rects, px, py); err != nil {
			t.Logf("weights=%v grid=%dx%d: %v", weights, px, py, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(3)), Values: quickInputs}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the same holds for the strips baselines.
func TestQuickStripsTile(t *testing.T) {
	f := func(weights []float64, px, py int) bool {
		rects, err := NaiveStrips(weights, px, py)
		if err != nil {
			return false
		}
		return Validate(rects, px, py) == nil
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(4)), Values: quickInputs}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: partition areas track weights — on grids much larger than
// the weight count, the proportionality error stays bounded.
func TestQuickProportionality(t *testing.T) {
	f := func(weights []float64, px, py int) bool {
		if px*py < 64*len(weights) {
			return true // tiny grids necessarily quantize coarsely
		}
		var sum, min float64
		for i, w := range weights {
			sum += w
			if i == 0 || w < min {
				min = w
			}
		}
		if min/sum*float64(px*py) < 32 {
			return true // a near-zero weight quantizes with large relative error
		}
		rects, err := Partition(weights, px, py)
		if err != nil {
			return false
		}
		dev := ProportionalityError(rects, weights)
		if dev > 0.6 {
			t.Logf("weights=%v grid=%dx%d: deviation %v", weights, px, py, dev)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(5)), Values: quickInputs}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: scaling all weights by a constant does not change the
// partition (only ratios matter).
func TestQuickScaleInvariance(t *testing.T) {
	f := func(weights []float64, px, py int) bool {
		a, err := Partition(weights, px, py)
		if err != nil {
			return false
		}
		scaled := make([]float64, len(weights))
		for i, w := range weights {
			scaled[i] = w * 37.5
		}
		b, err := Partition(scaled, px, py)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(a, b)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6)), Values: quickInputs}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Algorithm 1 is never less square-like on average than the
// shorter-dimension strawman.
func TestQuickLongerBeatsShorter(t *testing.T) {
	f := func(weights []float64, px, py int) bool {
		long, err := Partition(weights, px, py)
		if err != nil {
			return false
		}
		short, err := PartitionShorterFirst(weights, px, py)
		if err != nil {
			return true // the strawman may be infeasible where Alg. 1 is not
		}
		avg := func(rs []Rect) float64 {
			var s float64
			for _, r := range rs {
				s += r.Squareness()
			}
			return s / float64(len(rs))
		}
		// Allow a tiny tolerance for rounding-induced ties.
		return avg(long) >= avg(short)-0.15
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7)), Values: quickInputs}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: apportion is exact and monotone-ish — a strictly larger
// weight never gets fewer units than a smaller one (largest-remainder
// with min-1 floor preserves order up to the floor).
func TestQuickApportionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.Intn(5)
		weights := make([]float64, k)
		for i := range weights {
			weights[i] = 0.1 + rng.Float64()*10
		}
		total := k + rng.Intn(200)
		parts, err := apportion(weights, total)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if weights[i] > weights[j]*1.5 && parts[i] < parts[j] &&
					float64(parts[j]) > math.Max(1, float64(total)/float64(k)*0.1) {
					t.Fatalf("trial %d: weight %v got %d units but %v got %d",
						trial, weights[i], parts[i], weights[j], parts[j])
				}
			}
		}
	}
}

// Property (ROADMAP 3's third relation): transposing the processor grid
// transposes the allocation, so every sibling keeps its area. Algorithm
// 1 splits the longer side and a square's x side on both grids alike.
// The grids add prime, single-row and single-column shapes to
// quickInputs'; a weight set the grid cannot hold must fail on both.
func TestQuickTransposeKeepsAreas(t *testing.T) {
	grids := [][2]int{{8, 8}, {16, 8}, {32, 16}, {12, 10}, {64, 32}, {13, 1}, {31, 1}, {64, 1}, {7, 11}, {17, 3}, {5, 5}, {6, 1}}
	gen := func(vals []reflect.Value, rng *rand.Rand) {
		quickInputs(vals, rng)
		g := grids[rng.Intn(len(grids))]
		vals[1], vals[2] = reflect.ValueOf(g[0]), reflect.ValueOf(g[1])
	}
	f := func(weights []float64, px, py int) bool {
		a, errA := Partition(weights, px, py)
		b, errB := Partition(weights, py, px)
		if errA != nil || errB != nil {
			if (errA == nil) != (errB == nil) {
				t.Logf("weights=%v grid=%dx%d: %v, transposed %v", weights, px, py, errA, errB)
			}
			return (errA == nil) == (errB == nil)
		}
		for i := range a {
			if a[i].Area() != b[i].Area() {
				t.Logf("weights=%v grid=%dx%d: sibling %d %v, transposed %v", weights, px, py, i, a[i], b[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(44)), Values: gen}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
