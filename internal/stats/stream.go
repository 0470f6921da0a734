package stats

import (
	"fmt"
	"math"
	"sort"
)

// P2 is a streaming quantile estimator (Jain & Chlamtac's P² algorithm):
// it tracks one quantile of an unbounded observation stream with five
// markers — O(1) memory and O(1) per observation — instead of retaining
// the data. The estimate is exact until five observations have arrived
// and approximate afterwards.
//
// All state is held in exported fields so an estimator survives a JSON
// round trip bit-exactly (encoding/json renders float64 with the
// shortest representation that round-trips): an ensemble campaign
// checkpoints its accumulators mid-stream and resumes them with no
// drift. The update is a fixed sequence of float operations, so feeding
// the same observations in the same order always yields the same state.
type P2 struct {
	// P is the tracked quantile probability in (0, 1).
	P float64 `json:"p"`
	// Count is the number of observations so far.
	Count int64 `json:"count"`
	// Heights are the marker heights q_i (Heights[2] estimates the
	// quantile once Count >= 5).
	Heights [5]float64 `json:"heights"`
	// Positions are the actual marker positions n_i.
	Positions [5]float64 `json:"positions"`
	// Desired are the desired marker positions n'_i.
	Desired [5]float64 `json:"desired"`
	// Initial buffers the first five observations.
	Initial [5]float64 `json:"initial"`
}

// NewP2 returns an estimator for the p-quantile (0 < p < 1).
func NewP2(p float64) *P2 { return &P2{P: p} }

// Add feeds one observation.
func (q *P2) Add(x float64) {
	if q.Count < 5 {
		q.Initial[q.Count] = x
		q.Count++
		if q.Count == 5 {
			s := q.Initial
			sort.Float64s(s[:])
			q.Heights = s
			q.Positions = [5]float64{1, 2, 3, 4, 5}
			q.Desired = [5]float64{1, 1 + 2*q.P, 1 + 4*q.P, 3 + 2*q.P, 5}
		}
		return
	}
	// Locate the cell k with Heights[k] <= x < Heights[k+1], extending
	// the extreme markers when x falls outside them.
	var k int
	switch {
	case x < q.Heights[0]:
		q.Heights[0] = x
		k = 0
	case x >= q.Heights[4]:
		q.Heights[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < q.Heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.Positions[i]++
	}
	inc := [5]float64{0, q.P / 2, q.P, (1 + q.P) / 2, 1}
	for i := range q.Desired {
		q.Desired[i] += inc[i]
	}
	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.Desired[i] - q.Positions[i]
		if (d >= 1 && q.Positions[i+1]-q.Positions[i] > 1) ||
			(d <= -1 && q.Positions[i-1]-q.Positions[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			h := q.parabolic(i, s)
			if !(q.Heights[i-1] < h && h < q.Heights[i+1]) {
				h = q.linear(i, s)
			}
			q.Heights[i] = h
			q.Positions[i] += s
		}
	}
	q.Count++
}

// parabolic is the P² piecewise-parabolic height adjustment for marker
// i moved by s (+1 or -1).
func (q *P2) parabolic(i int, s float64) float64 {
	return q.Heights[i] + s/(q.Positions[i+1]-q.Positions[i-1])*
		((q.Positions[i]-q.Positions[i-1]+s)*(q.Heights[i+1]-q.Heights[i])/(q.Positions[i+1]-q.Positions[i])+
			(q.Positions[i+1]-q.Positions[i]-s)*(q.Heights[i]-q.Heights[i-1])/(q.Positions[i]-q.Positions[i-1]))
}

// linear is the fallback height adjustment when the parabolic estimate
// leaves the neighbouring markers' interval.
func (q *P2) linear(i int, s float64) float64 {
	j := i + int(s)
	return q.Heights[i] + s*(q.Heights[j]-q.Heights[i])/(q.Positions[j]-q.Positions[i])
}

// Value returns the current quantile estimate: exact (by sorting the
// buffered observations) below five observations, the centre marker
// height afterwards. An empty estimator reads zero.
func (q *P2) Value() float64 {
	n := int(q.Count)
	if n == 0 {
		return 0
	}
	if n < 5 {
		s := append([]float64(nil), q.Initial[:n]...)
		sort.Float64s(s)
		pos := q.P * float64(n-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q.Heights[2]
}

// Stream is an online accumulator of mean, variance (Welford's
// update), extrema and any number of P² quantile estimators. It holds
// O(1) state regardless of how many observations it has seen, and —
// like P2 — is JSON-serializable bit-exactly mid-stream, so streaming
// campaign aggregates survive checkpoint/resume with no drift.
//
// A Stream is not safe for concurrent Add; the ensemble engine feeds
// it from a single committer goroutine in deterministic member order.
type Stream struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	// M2 is the running sum of squared deviations (Welford).
	M2  float64 `json:"m2"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Quantiles are the registered P² estimators, in registration
	// order.
	Quantiles []*P2 `json:"quantiles,omitempty"`
}

// NewStream returns a Stream tracking the given quantile
// probabilities (each in (0,1)) alongside mean/variance/extrema.
func NewStream(probs ...float64) *Stream {
	s := &Stream{}
	for _, p := range probs {
		s.Quantiles = append(s.Quantiles, NewP2(p))
	}
	return s
}

// Add feeds one observation.
func (s *Stream) Add(x float64) {
	s.Count++
	if s.Count == 1 {
		s.Min, s.Max = x, x
	} else {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	d := x - s.Mean
	s.Mean += d / float64(s.Count)
	s.M2 += d * (x - s.Mean)
	for _, q := range s.Quantiles {
		q.Add(x)
	}
}

// Variance returns the population variance seen so far.
func (s *Stream) Variance() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.M2 / float64(s.Count)
}

// Stddev returns the population standard deviation seen so far.
func (s *Stream) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Quantile returns the estimate for probability p, which must match a
// probability the Stream was constructed with.
func (s *Stream) Quantile(p float64) (float64, error) {
	for _, q := range s.Quantiles {
		if q.P == p {
			return q.Value(), nil
		}
	}
	return 0, fmt.Errorf("stats: stream does not track the %g-quantile", p)
}
