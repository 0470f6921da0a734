package alloc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestRectBasics(t *testing.T) {
	r := Rect{2, 3, 4, 5}
	if r.Area() != 20 {
		t.Errorf("Area = %d", r.Area())
	}
	if got := r.Squareness(); got != 0.8 {
		t.Errorf("Squareness = %v", got)
	}
	if (Rect{0, 0, 0, 5}).Squareness() != 0 {
		t.Error("empty rect squareness should be 0")
	}
	if (Rect{0, 0, 5, 4}).Squareness() != 0.8 {
		t.Error("wide rect squareness")
	}
}

func TestRectOverlaps(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{4, 0, 4, 4}, false}, // adjacent right
		{Rect{0, 4, 4, 4}, false}, // adjacent below
		{Rect{3, 3, 2, 2}, true},  // corner overlap
		{Rect{1, 1, 2, 2}, true},  // contained
		{Rect{10, 10, 1, 1}, false},
	}
	for _, tc := range cases {
		if got := a.Overlaps(tc.b); got != tc.want {
			t.Errorf("Overlaps(%v, %v) = %v, want %v", a, tc.b, got, tc.want)
		}
	}
}

// errorCases are the inputs every weighted strategy must refuse, on a
// 16×16 grid unless the case says otherwise. NaN and +Inf weights, and
// finite weights whose sum overflows, used to be planned on.
var errorCases = []struct {
	name    string
	weights []float64
	px, py  int
	want    error
}{
	{"empty", nil, 16, 16, ErrNoDomains},
	{"bad grid", []float64{1}, 0, 4, ErrBadGrid},
	{"too many", []float64{1, 1, 1, 1, 1}, 2, 2, ErrTooManyDomains},
	{"negative weight", []float64{1, -1}, 16, 16, ErrBadWeight},
	{"zero weight", []float64{1, 0}, 16, 16, ErrBadWeight},
	{"NaN weight", []float64{1, math.NaN()}, 16, 16, ErrBadWeight},
	{"+Inf weight", []float64{1, math.Inf(1), 1}, 16, 16, ErrBadWeight},
	{"-Inf weight", []float64{math.Inf(-1), 1}, 16, 16, ErrBadWeight},
	{"sum overflows", []float64{1e308, 1e308, 1}, 16, 16, ErrBadWeight},
}

func TestPartitionErrors(t *testing.T) {
	for _, tc := range errorCases {
		if rects, err := Partition(tc.weights, tc.px, tc.py); !errors.Is(err, tc.want) {
			t.Errorf("%s: Partition = %v, %v; want %v", tc.name, rects, err, tc.want)
		}
	}
}

func TestNaiveStripsErrors(t *testing.T) {
	for _, tc := range errorCases {
		if rects, err := NaiveStrips(tc.weights, tc.px, tc.py); !errors.Is(err, tc.want) {
			t.Errorf("%s: NaiveStrips = %v, %v; want %v", tc.name, rects, err, tc.want)
		}
	}
}

func TestPartitionSingleDomain(t *testing.T) {
	rects, err := Partition([]float64{1}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rects) != 1 || rects[0] != (Rect{0, 0, 8, 4}) {
		t.Errorf("single domain = %v", rects)
	}
}

func TestPartitionPaperRatios(t *testing.T) {
	// Fig. 3(b): 4 nested simulations in the ratio 0.15:0.3:0.35:0.2.
	weights := []float64{0.15, 0.3, 0.35, 0.2}
	rects, err := Partition(weights, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(rects, 32, 32); err != nil {
		t.Fatal(err)
	}
	if got := ProportionalityError(rects, weights); got > 0.10 {
		t.Errorf("proportionality error %v > 10%%", got)
	}
}

// Table 2 of the paper: 4 siblings on a 32x32 grid (1024 BG/L cores)
// receive 18x24, 18x8, 14x12, 14x20 processors. Our partitioner need
// not match those exact rectangles, but the areas must be close to the
// same proportions (432:144:168:280).
func TestPartitionTable2Proportions(t *testing.T) {
	weights := []float64{432, 144, 168, 280}
	rects, err := Partition(weights, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(rects, 32, 32); err != nil {
		t.Fatal(err)
	}
	if got := ProportionalityError(rects, weights); got > 0.15 {
		t.Errorf("proportionality error %v > 15%%", got)
	}
}

func TestPartitionExactTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	grids := [][2]int{{8, 8}, {16, 8}, {32, 32}, {64, 32}, {32, 64}, {7, 9}, {128, 64}}
	for trial := 0; trial < 200; trial++ {
		g := grids[rng.Intn(len(grids))]
		k := 1 + rng.Intn(6)
		weights := make([]float64, k)
		for i := range weights {
			weights[i] = 0.1 + rng.Float64()
		}
		rects, err := Partition(weights, g[0], g[1])
		if err != nil {
			t.Fatalf("trial %d (%dx%d, k=%d): %v", trial, g[0], g[1], k, err)
		}
		if err := Validate(rects, g[0], g[1]); err != nil {
			t.Fatalf("trial %d (%dx%d, k=%d): %v", trial, g[0], g[1], k, err)
		}
	}
}

// Splitting along the longer dimension must produce more square-like
// partitions than splitting along the shorter one (Fig. 4).
func TestPartitionSquareness(t *testing.T) {
	weights := []float64{1, 1, 1, 1}
	rects, err := Partition(weights, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rects {
		if r.Squareness() < 0.45 {
			t.Errorf("rect %d %v too elongated: squareness %v", i, r, r.Squareness())
		}
	}
	// With equal weights on a square grid, all partitions are quadrants.
	for _, r := range rects {
		if r.W != 16 || r.H != 16 {
			t.Errorf("equal weights on 32x32 should give 16x16 quadrants, got %v", r)
		}
	}
}

func TestPartitionMoreSquareThanStrips(t *testing.T) {
	weights := []float64{0.25, 0.25, 0.3, 0.2}
	part, err := Partition(weights, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	strips, err := NaiveStrips(weights, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(rs []Rect) float64 {
		var s float64
		for _, r := range rs {
			s += r.Squareness()
		}
		return s / float64(len(rs))
	}
	if avg(part) <= avg(strips) {
		t.Errorf("Algorithm 1 squareness %v should beat strips %v", avg(part), avg(strips))
	}
}

func TestPartitionTinyGrids(t *testing.T) {
	// k domains on a grid with exactly k processors. (Weights must give a
	// balanced Huffman shape: a (3,1)-shaped tree cannot tile a 2x2 grid
	// with rectangles.)
	rects, err := Partition([]float64{1, 1, 2, 2}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(rects, 2, 2); err != nil {
		t.Fatal(err)
	}
	for _, r := range rects {
		if r.Area() != 1 {
			t.Errorf("each rect should be a single processor, got %v", r)
		}
	}
	// 1xN grid.
	rects, err = Partition([]float64{5, 1, 1}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(rects, 1, 8); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSkewedWeights(t *testing.T) {
	// One huge and several tiny weights must still give everyone space.
	weights := []float64{1000, 1, 1, 1}
	rects, err := Partition(weights, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(rects, 16, 16); err != nil {
		t.Fatal(err)
	}
	if rects[0].Area() < 200 {
		t.Errorf("dominant weight got only %d processors", rects[0].Area())
	}
}

func TestNaiveStripsProportions(t *testing.T) {
	weights := []float64{1, 2, 1}
	rects, err := NaiveStrips(weights, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(rects, 16, 8); err != nil {
		t.Fatal(err)
	}
	// Strips along x (the longer dim): widths 4, 8, 4.
	if rects[0].W != 4 || rects[1].W != 8 || rects[2].W != 4 {
		t.Errorf("strip widths = %d,%d,%d", rects[0].W, rects[1].W, rects[2].W)
	}
	for _, r := range rects {
		if r.H != 8 {
			t.Errorf("strip should span full height, got %v", r)
		}
	}
}

func TestNaiveStripsVerticalGrid(t *testing.T) {
	rects, err := NaiveStrips([]float64{1, 1}, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(rects, 4, 16); err != nil {
		t.Fatal(err)
	}
	for _, r := range rects {
		if r.W != 4 || r.H != 8 {
			t.Errorf("vertical strip = %v", r)
		}
	}
}

func TestEqualSplit(t *testing.T) {
	rects, err := EqualSplit(4, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(rects, 32, 32); err != nil {
		t.Fatal(err)
	}
	for _, r := range rects {
		if r.Area() != 256 {
			t.Errorf("equal split area = %d, want 256", r.Area())
		}
	}
}

func TestApportionSumsAndMinimums(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(8)
		total := k + rng.Intn(100)
		weights := make([]float64, k)
		for i := range weights {
			weights[i] = 0.01 + rng.Float64()*10
		}
		parts, err := apportion(weights, total)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sum := 0
		for _, p := range parts {
			if p < 1 {
				t.Fatalf("trial %d: strip of width %d", trial, p)
			}
			sum += p
		}
		if sum != total {
			t.Fatalf("trial %d: parts sum to %d, want %d", trial, sum, total)
		}
	}
}

func TestApportionInfeasible(t *testing.T) {
	if _, err := apportion([]float64{1, 1, 1}, 2); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestProportionalityErrorPerfect(t *testing.T) {
	rects := []Rect{{0, 0, 2, 4}, {2, 0, 2, 4}}
	if got := ProportionalityError(rects, []float64{1, 1}); got != 0 {
		t.Errorf("perfect proportion error = %v", got)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	if err := Validate([]Rect{{0, 0, 2, 2}}, 4, 4); err == nil {
		t.Error("undercoverage should fail")
	}
	if err := Validate([]Rect{{0, 0, 4, 4}, {0, 0, 1, 1}}, 4, 4); err == nil {
		t.Error("overlap should fail")
	}
	if err := Validate([]Rect{{0, 0, 5, 4}}, 4, 4); err == nil {
		t.Error("out of bounds should fail")
	}
	if err := Validate([]Rect{{0, 0, 0, 4}, {0, 0, 4, 4}}, 4, 4); err == nil {
		t.Error("empty rect should fail")
	}
	if err := Validate([]Rect{{0, 0, 4, 4}}, 4, 4); err != nil {
		t.Errorf("valid tiling rejected: %v", err)
	}
}

// Partition areas must track weights: a sibling with twice the
// predicted time gets roughly twice the processors.
func TestPartitionAreaMonotonicity(t *testing.T) {
	weights := []float64{1, 2, 4}
	rects, err := Partition(weights, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !(rects[0].Area() < rects[1].Area() && rects[1].Area() < rects[2].Area()) {
		t.Errorf("areas %d, %d, %d not monotone in weights",
			rects[0].Area(), rects[1].Area(), rects[2].Area())
	}
	r01 := float64(rects[1].Area()) / float64(rects[0].Area())
	r12 := float64(rects[2].Area()) / float64(rects[1].Area())
	if math.Abs(r01-2) > 0.4 || math.Abs(r12-2) > 0.4 {
		t.Errorf("area ratios %v, %v stray from 2", r01, r12)
	}
}

func BenchmarkPartition4Siblings(b *testing.B) {
	weights := []float64{0.42, 0.14, 0.17, 0.27}
	for i := 0; i < b.N; i++ {
		if _, err := Partition(weights, 32, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveStrips(b *testing.B) {
	weights := []float64{0.42, 0.14, 0.17, 0.27}
	for i := 0; i < b.N; i++ {
		if _, err := NaiveStrips(weights, 32, 32); err != nil {
			b.Fatal(err)
		}
	}
}
