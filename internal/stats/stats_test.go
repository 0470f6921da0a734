package stats

import (
	"math"
	"testing"
)

func TestMeanMaxMin(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Mean(xs) != 2.8 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Max(xs) != 5 || Min(xs) != 1 {
		t.Errorf("Max/Min = %v/%v", Max(xs), Min(xs))
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty slices should give 0")
	}
}

func TestImprovement(t *testing.T) {
	if Improvement(10, 8) != 20 {
		t.Errorf("Improvement(10,8) = %v", Improvement(10, 8))
	}
	if Improvement(10, 12) != -20 {
		t.Errorf("Improvement(10,12) = %v", Improvement(10, 12))
	}
	if Improvement(0, 5) != 0 {
		t.Error("zero old should give 0")
	}
}

func TestMedian(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even median")
	}
	if Median(nil) != 0 {
		t.Error("empty median")
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Error("Median mutated input")
	}
}

func TestStddev(t *testing.T) {
	if Stddev([]float64{2, 2, 2}) != 0 {
		t.Error("constant stddev")
	}
	got := Stddev([]float64{1, 3})
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("Stddev = %v, want 1", got)
	}
	if Stddev(nil) != 0 {
		t.Error("empty stddev")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Max != 4 || s.Min != 1 || s.Median != 2.5 {
		t.Errorf("Summary = %+v", s)
	}
}
