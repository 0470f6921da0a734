package driver

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/vtopo"
	"nestwrf/internal/workload"
)

// perRankWaits is the wait accounting the cells replaced: one
// accumulator per rank for each of the two communication cases, summed
// in rank order at the end.
type perRankWaits struct {
	g        vtopo.Grid
	avg, max []float64
}

func (w *perRankWaits) add(s alloc.Rect, avg, max float64) {
	for y := s.Y; y < s.Y+s.H; y++ {
		row := w.g.Rank(s.X, y)
		for rank := row; rank < row+s.W; rank++ {
			w.avg[rank] += avg
			w.max[rank] += max
		}
	}
}

func (w *perRankWaits) totals() (avg, worst float64) {
	var sum float64
	for _, v := range w.avg {
		sum += v
	}
	for _, v := range w.max {
		if v > worst {
			worst = v
		}
	}
	return sum / float64(len(w.avg)), worst
}

// waitCall is one addWait of a replayed run.
type waitCall struct {
	rect     alloc.Rect
	avg, max float64
}

// nestedWaits appends the addWait calls domainIter makes for a domain
// with own per-step wait (avg, max) on rect at multiplicity mult, over
// a random nest below it: sequential children on the same rectangle, or
// concurrent children on alloc.Partition's rectangles, each of those
// with its own nest and nestedExtra's negated take-back of the
// re-counted own step.
func nestedWaits(rng *rand.Rand, calls []waitCall, rect alloc.Rect, mult, avg, max float64, depth int) []waitCall {
	calls = append(calls, waitCall{rect, mult * avg, mult * max})
	if depth == 0 || rng.Intn(4) == 0 {
		return calls
	}
	wait := func() (float64, float64) {
		a := rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(7)-5))
		return a, a * (1 + rng.Float64())
	}
	k := 1 + rng.Intn(min(5, rect.Area()))
	if rect.Area() <= 64 && rng.Intn(3) == 0 {
		k = rect.Area() // one sibling per rank
	}
	if rng.Intn(3) == 0 { // sequential strategy
		for range min(k, 4) {
			a, m := wait()
			calls = nestedWaits(rng, calls, rect, mult*float64(1+rng.Intn(4)), a, m, depth-1)
		}
		return calls
	}
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = 0.1 + rng.Float64()
	}
	rects, err := alloc.Partition(weights, rect.W, rect.H)
	if err != nil {
		return calls
	}
	for _, cr := range rects {
		cr.X += rect.X
		cr.Y += rect.Y
		steps := mult * float64(1+rng.Intn(4))
		a, m := wait()
		calls = append(calls, waitCall{cr, steps * a, steps * m})
		if rng.Intn(2) == 0 {
			calls = nestedWaits(rng, calls, cr, steps, a, m, depth-1)
			calls = append(calls, waitCall{cr, -steps * a, -steps * m})
		}
	}
	return calls
}

// TestWaitCellsMatchPerRank is the cells' bit-for-bit oracle: the same
// addWait sequence, run through the cells and through one accumulator
// per rank, leaves every rank the same wait and gives the same summed
// average and maximum, to the bit. The sequences are seeded random nests
// on random, prime, 1 x N and N x 1 grids.
func TestWaitCellsMatchPerRank(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	grids := [][2]int{{1, 1}, {13, 1}, {1, 13}, {31, 1}, {1, 37}, {7, 11}, {8, 8}, {16, 32}, {64, 64}}
	for range 300 {
		grids = append(grids, [2]int{1 + rng.Intn(48), 1 + rng.Intn(48)})
	}
	for i, dims := range grids {
		g, err := vtopo.NewGrid(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		full := alloc.Rect{W: g.Px, H: g.Py}
		calls := nestedWaits(rng, nil, full, 1, rng.ExpFloat64(), 1+rng.ExpFloat64(), 4)

		r := run{opt: Options{Ranks: g.Size()}, g: g, cells: []waitCell{{rect: full}}}
		ref := perRankWaits{g: g, avg: make([]float64, g.Size()), max: make([]float64, g.Size())}
		for _, c := range calls {
			r.addWait(c.rect, c.avg, c.max)
			ref.add(c.rect, c.avg, c.max)
		}

		covered := make([]bool, g.Size())
		for _, c := range r.cells {
			for y := c.rect.Y; y < c.rect.Y+c.rect.H; y++ {
				for x := c.rect.X; x < c.rect.X+c.rect.W; x++ {
					rank := g.Rank(x, y)
					if covered[rank] {
						t.Fatalf("grid %dx%d (case %d): rank %d in two cells", g.Px, g.Py, i, rank)
					}
					covered[rank] = true
					if math.Float64bits(c.avg) != math.Float64bits(ref.avg[rank]) ||
						math.Float64bits(c.max) != math.Float64bits(ref.max[rank]) {
						t.Fatalf("grid %dx%d (case %d): rank %d waits %v/%v, per rank %v/%v",
							g.Px, g.Py, i, rank, c.avg, c.max, ref.avg[rank], ref.max[rank])
					}
				}
			}
		}
		for rank, ok := range covered {
			if !ok {
				t.Fatalf("grid %dx%d (case %d): rank %d in no cell", g.Px, g.Py, i, rank)
			}
		}

		avg, worst := r.waits()
		wantAvg, wantWorst := ref.totals()
		if math.Float64bits(avg) != math.Float64bits(wantAvg) || math.Float64bits(worst) != math.Float64bits(wantWorst) {
			t.Errorf("grid %dx%d (case %d, %d calls, %d cells): WaitAvg %v WaitMax %v, per rank %v %v",
				g.Px, g.Py, i, len(calls), len(r.cells), avg, worst, wantAvg, wantWorst)
		}
	}
}

// TestRunBytesIndependentOfRanks pins that a run keeps nothing per
// rank: on a warmed phase memo, the stock-WRF baseline (sequential
// strategy, oblivious mapping) allocates no more bytes at 8192 ranks
// than at 512.
func TestRunBytesIndependentOfRanks(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	cfg := workload.Table2Config()
	bytesPerRun := func(ranks int) uint64 {
		opt := Options{Machine: machine.BGP(), Ranks: ranks, Strategy: Sequential, MapKind: MapSequential}
		if _, err := Run(cfg, opt); err != nil { // warms the memo
			t.Fatal(err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := Run(cfg, opt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := bytesPerRun(512), bytesPerRun(8192)
	t.Logf("bytes per run: %d at 512 ranks, %d at 8192", small, large)
	const slack = 256
	if large > small+slack {
		t.Errorf("Run at 8192 ranks allocates %d bytes, at 512 ranks %d: more than %d bytes grow with the rank count",
			large, small, slack)
	}
}
