package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestStreamMatchesBatchStatistics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var xs []float64
	s := NewStream(0.5)
	for i := 0; i < 5000; i++ {
		x := r.NormFloat64()*3 + 10
		xs = append(xs, x)
		s.Add(x)
	}
	if got, want := s.Mean, Mean(xs); math.Abs(got-want) > 1e-9 {
		t.Errorf("mean %v want %v", got, want)
	}
	if got, want := s.Stddev(), Stddev(xs); math.Abs(got-want) > 1e-9 {
		t.Errorf("stddev %v want %v", got, want)
	}
	if got, want := s.Min, Min(xs); got != want {
		t.Errorf("min %v want %v", got, want)
	}
	if got, want := s.Max, Max(xs); got != want {
		t.Errorf("max %v want %v", got, want)
	}
	med, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := Median(xs); math.Abs(med-want) > 0.2 {
		t.Errorf("P2 median %v too far from exact %v", med, want)
	}
}

// The P² estimate must track exact quantiles closely on smooth
// distributions across the probabilities the ensemble engine uses.
func TestP2AccuracyAgainstExactQuantiles(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			q := NewP2(p)
			var xs []float64
			for i := 0; i < 20000; i++ {
				x := r.Float64() * 100
				xs = append(xs, x)
				q.Add(x)
			}
			exact := exactQuantile(xs, p)
			if math.Abs(q.Value()-exact) > 1.0 { // 1% of the range
				t.Errorf("p=%v seed=%d: P2 %v exact %v", p, seed, q.Value(), exact)
			}
		}
	}
}

func exactQuantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	hi := lo
	if lo+1 < len(s) {
		hi = lo + 1
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// Below five observations the estimator must be exact, and an empty
// one must read zero.
func TestP2SmallStreams(t *testing.T) {
	q := NewP2(0.5)
	if q.Value() != 0 {
		t.Errorf("empty estimator reads %v", q.Value())
	}
	q.Add(7)
	if q.Value() != 7 {
		t.Errorf("single observation reads %v", q.Value())
	}
	q.Add(1)
	q.Add(3)
	if got := q.Value(); got != 3 {
		t.Errorf("median of {1,3,7} = %v", got)
	}
}

// A checkpointed accumulator must resume bit-exactly: serializing
// mid-stream and continuing must reach the same state as the
// uninterrupted stream.
func TestStreamJSONRoundTripBitExact(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.ExpFloat64() * 50
	}

	full := NewStream(0.1, 0.5, 0.9)
	for _, x := range xs {
		full.Add(x)
	}

	part := NewStream(0.1, 0.5, 0.9)
	for _, x := range xs[:137] {
		part.Add(x)
	}
	data, err := json.Marshal(part)
	if err != nil {
		t.Fatal(err)
	}
	resumed := &Stream{}
	if err := json.Unmarshal(data, resumed); err != nil {
		t.Fatal(err)
	}
	for _, x := range xs[137:] {
		resumed.Add(x)
	}

	if !reflect.DeepEqual(full, resumed) {
		t.Errorf("resumed stream diverged:\nfull    %+v\nresumed %+v", full, resumed)
	}
	a, _ := json.Marshal(full)
	b, _ := json.Marshal(resumed)
	if string(a) != string(b) {
		t.Errorf("JSON mismatch:\n%s\n%s", a, b)
	}
}
