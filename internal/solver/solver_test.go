package solver

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nestwrf/internal/mpi"
	"nestwrf/internal/vtopo"
)

func tm() mpi.AlphaBeta { return mpi.AlphaBeta{Alpha: 1e-6, Beta: 1e-9} }

func TestNewTileValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := NewTile(10, 10, 8, 0, 4, 4, p); err == nil {
		t.Error("overflowing tile should fail")
	}
	if _, err := NewTile(10, 10, 0, 0, 0, 4, p); err == nil {
		t.Error("empty tile should fail")
	}
	if _, err := NewTile(10, 10, -1, 0, 4, 4, p); err == nil {
		t.Error("negative origin should fail")
	}
}

// A tile is two heap objects — the struct and one slab holding its six
// fields and three flux lines — so worlds of thousands of tiles stay
// cheap to build and to garbage-collect, and the views carved from the
// slab must not overlap.
func TestNewTileOneSlab(t *testing.T) {
	if !raceEnabled {
		avg := testing.AllocsPerRun(20, func() {
			if _, err := NewTile(40, 40, 3, 4, 5, 3, DefaultParams()); err != nil {
				t.Error(err)
			}
		})
		if avg > 2 {
			t.Errorf("NewTile: %v allocs, want at most 2", avg)
		}
	}
	tile, err := NewTile(40, 40, 3, 4, 5, 3, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	views := [][]float64{tile.h, tile.hu, tile.hv, tile.nh, tile.nhu, tile.nhv}
	for i := range tile.fl {
		l := &tile.fl[i]
		views = append(views, l.fh, l.fhu, l.fhv, l.gh, l.ghu, l.ghv)
	}
	for i, v := range views {
		want := (5 + 2) * (3 + 2)
		if i >= 6 {
			want = 5 + 2
		}
		if len(v) != want || cap(v) != want {
			t.Fatalf("view %d: len %d cap %d, want %d", i, len(v), cap(v), want)
		}
		for j := range v {
			v[j] = float64(i + 1)
		}
	}
	for i, v := range views {
		for j := range v {
			if v[j] != float64(i+1) {
				t.Fatalf("view %d overlaps another: [%d] = %v", i, j, v[j])
			}
		}
	}
}

func TestMassConservation(t *testing.T) {
	nx, ny := 40, 30
	init := GaussianHill(nx, ny, 20, 15, 0.5, 4)
	tile, err := NewTile(nx, ny, 0, 0, nx, ny, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tile.Fill(init)
	m0 := tile.Mass()
	for s := 0; s < 200; s++ {
		tile.SetReflective()
		tile.Step()
	}
	m1 := tile.Mass()
	if math.Abs(m1-m0)/m0 > 1e-9 {
		t.Errorf("mass drifted: %v -> %v", m0, m1)
	}
}

func TestStability(t *testing.T) {
	// The hill should disperse, not blow up: heights stay within a sane
	// band around the rest depth.
	st, err := RunSerial(50, 50, 500, DefaultParams(), GaussianHill(50, 50, 25, 25, 0.3, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range st.H {
		if math.IsNaN(h) || h < 0.2 || h > 2.0 {
			t.Fatalf("cell %d: height %v unstable", i, h)
		}
	}
}

func TestSymmetryPreserved(t *testing.T) {
	// A centred hill on a square domain must stay 4-fold symmetric.
	n := 31
	st, err := RunSerial(n, n, 100, DefaultParams(), GaussianHill(n, n, 15, 15, 0.4, 3))
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			hx := st.H[st.At(n-1-x, y)]
			hy := st.H[st.At(x, n-1-y)]
			h := st.H[st.At(x, y)]
			if math.Abs(h-hx) > 1e-12 || math.Abs(h-hy) > 1e-12 {
				t.Fatalf("symmetry broken at (%d,%d): %v vs %v vs %v", x, y, h, hx, hy)
			}
		}
	}
}

func TestWaveSpreads(t *testing.T) {
	n := 41
	init := GaussianHill(n, n, 20, 20, 0.5, 3)
	st0 := NewState(n, n)
	tile, _ := NewTile(n, n, 0, 0, n, n, DefaultParams())
	tile.Fill(init)
	tile.Interior(st0)
	st, err := RunSerial(n, n, 150, DefaultParams(), init)
	if err != nil {
		t.Fatal(err)
	}
	// The central peak must decay as the wave propagates outward.
	if st.H[st.At(20, 20)] >= st0.H[st0.At(20, 20)] {
		t.Errorf("central peak did not decay: %v -> %v",
			st0.H[st0.At(20, 20)], st.H[st.At(20, 20)])
	}
	// And the far corner must have been perturbed.
	if math.Abs(st.H[st.At(1, 1)]-1.0) < 1e-9 {
		t.Error("wave never reached the corner")
	}
}

// Decompose's rectangles tile the domain, and Owner names the rank of
// each cell's rectangle.
func TestDecomposeCoversDomain(t *testing.T) {
	for _, tc := range []struct{ nx, ny, px, py int }{
		{40, 30, 4, 3}, {41, 31, 4, 3}, {7, 5, 3, 2}, {100, 1, 8, 1},
	} {
		grid := vtopo.Grid{Px: tc.px, Py: tc.py}
		covered := make([]bool, tc.nx*tc.ny)
		for r := 0; r < grid.Size(); r++ {
			x0, y0, w, h := Decompose(tc.nx, tc.ny, grid, r)
			if w <= 0 || h <= 0 {
				t.Fatalf("%+v rank %d: empty tile %dx%d", tc, r, w, h)
			}
			for y := y0; y < y0+h; y++ {
				for x := x0; x < x0+w; x++ {
					i := y*tc.nx + x
					if covered[i] {
						t.Fatalf("%+v: cell (%d,%d) covered twice", tc, x, y)
					}
					covered[i] = true
					if o := Owner(tc.nx, tc.ny, grid, x, y); o != r {
						t.Fatalf("%+v: Owner(%d,%d) = %d, want %d", tc, x, y, o, r)
					}
				}
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("%+v: cell %d not covered", tc, i)
			}
		}
	}
}

// Part inverts Span: cell g lies in part Part(n, parts, g)'s span, and
// the spans are consecutive and cover [0, n) — with more parts than
// cells too, where the trailing parts are empty.
func TestPartInvertsSpan(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{{40, 4}, {41, 4}, {7, 3}, {5, 8}, {1, 3}, {12, 12}} {
		next := 0
		for i := 0; i < tc.parts; i++ {
			start, size := Span(tc.n, tc.parts, i)
			if start != next || size < 0 {
				t.Fatalf("Span(%d,%d,%d) = [%d,+%d), want start %d", tc.n, tc.parts, i, start, size, next)
			}
			for g := start; g < start+size; g++ {
				if got := Part(tc.n, tc.parts, g); got != i {
					t.Fatalf("Part(%d,%d,%d) = %d, want %d", tc.n, tc.parts, g, got, i)
				}
			}
			next = start + size
		}
		if next != tc.n {
			t.Fatalf("%+v: spans cover [0,%d), want [0,%d)", tc, next, tc.n)
		}
	}
}

// The core correctness property: the parallel solution over any process
// grid equals the serial solution bit for bit.
func TestParallelMatchesSerial(t *testing.T) {
	nx, ny, steps := 37, 29, 60
	p := DefaultParams()
	init := GaussianHill(nx, ny, 18, 14, 0.4, 4)
	ref, err := RunSerial(nx, ny, steps, p, init)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][2]int{{2, 2}, {4, 3}, {1, 4}, {6, 1}} {
		grid := vtopo.Grid{Px: shape[0], Py: shape[1]}
		var got *State
		_, err := mpi.Run(grid.Size(), tm(), func(proc *mpi.Proc) error {
			c := proc.World()
			x0, y0, w, h := Decompose(nx, ny, grid, c.Rank())
			tile, err := NewTile(nx, ny, x0, y0, w, h, p)
			if err != nil {
				return err
			}
			tile.Fill(init)
			for s := 0; s < steps; s++ {
				if err := tile.Exchange(c, grid); err != nil {
					return err
				}
				tile.Step()
			}
			st, err := Gather(c, tile)
			if err != nil {
				return err
			}
			if st != nil {
				got = st
			}
			return nil
		})
		if err != nil {
			t.Fatalf("grid %v: %v", shape, err)
		}
		if got == nil {
			t.Fatalf("grid %v: no gathered state", shape)
		}
		if d := ref.MaxDiff(got); d != 0 {
			t.Errorf("grid %v: parallel differs from serial by %v", shape, d)
		}
	}
}

// Parallel mass conservation across ranks via Allreduce.
func TestParallelMassConservation(t *testing.T) {
	nx, ny := 32, 32
	grid := vtopo.Grid{Px: 4, Py: 2}
	p := DefaultParams()
	init := GaussianHill(nx, ny, 16, 16, 0.5, 4)
	_, err := mpi.Run(grid.Size(), tm(), func(proc *mpi.Proc) error {
		c := proc.World()
		x0, y0, w, h := Decompose(nx, ny, grid, c.Rank())
		tile, err := NewTile(nx, ny, x0, y0, w, h, p)
		if err != nil {
			return err
		}
		tile.Fill(init)
		m0, err := c.Allreduce(mpi.OpSum, []float64{tile.Mass()})
		if err != nil {
			return err
		}
		for s := 0; s < 50; s++ {
			if err := tile.Exchange(c, grid); err != nil {
				return err
			}
			tile.Step()
		}
		m1, err := c.Allreduce(mpi.OpSum, []float64{tile.Mass()})
		if err != nil {
			return err
		}
		if math.Abs(m1[0]-m0[0])/m0[0] > 1e-9 {
			t.Errorf("rank %d: mass %v -> %v", c.Rank(), m0[0], m1[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Pack and unpack move exactly the cells of one rectangle of the
// halo-extended tile, bit for bit (-0 included), in Pack's row-major
// triple layout: unpacking a packed rectangle into a second tile of the
// same shape reproduces those cells and changes no other, and Pack
// writes 3*w*h floats and no more. The fixed case reads one halo cell
// back through a 1x1 Pack.
func TestPackUnpack(t *testing.T) {
	tile, err := NewTile(10, 10, 0, 0, 5, 5, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tile.SetHaloCell(-1, 2, 1.5, 0.1, -0.2)
	var cell [3]float64
	if n := tile.Pack(cell[:], -1, 2, 1, 1); n != 3 || cell != [3]float64{1.5, 0.1, -0.2} {
		t.Errorf("halo cell = %v (%d floats)", cell, n)
	}

	negZero := math.Copysign(0, -1)
	f := func(seed int64, tw, th, rx, ry, rw, rh uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+int(tw)%9, 1+int(th)%9
		// A rectangle [x, x+rw) x [y, y+rh) inside the halo-extended
		// tile [-1, w+1) x [-1, h+1); empty ones included.
		x, y := -1+int(rx)%(w+2), -1+int(ry)%(h+2)
		rectW, rectH := int(rw)%(w+2-x), int(rh)%(h+2-y)
		fill := func() *Tile {
			tl, err := NewTile(w, h, 0, 0, w, h, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			for cy := -1; cy <= h; cy++ {
				for cx := -1; cx <= w; cx++ {
					v := [3]float64{rng.NormFloat64(), rng.NormFloat64(), negZero}
					rng.Shuffle(3, func(i, j int) { v[i], v[j] = v[j], v[i] })
					tl.SetHaloCell(cx, cy, v[0], v[1], v[2])
				}
			}
			return tl
		}
		src, dst := fill(), fill()
		before := slices.Clone(dst.h)
		beforeU, beforeV := slices.Clone(dst.hu), slices.Clone(dst.hv)
		const sentinel = 12345.0
		n := 3 * rectW * rectH
		buf := make([]float64, n+3)
		for i := range buf {
			buf[i] = sentinel
		}
		if got := src.Pack(buf, x, y, rectW, rectH); got != n {
			t.Logf("Pack returned %d floats, want %d", got, n)
			return false
		}
		if buf[n] != sentinel || buf[n+1] != sentinel || buf[n+2] != sentinel {
			t.Logf("Pack wrote past %d floats", n)
			return false
		}
		dst.unpack(buf, x, y, rectW, rectH)
		bits := math.Float64bits
		for cy := -1; cy <= h; cy++ {
			for cx := -1; cx <= w; cx++ {
				i := dst.idx(cx, cy)
				want := [3]float64{before[i], beforeU[i], beforeV[i]}
				if cx >= x && cx < x+rectW && cy >= y && cy < y+rectH {
					want = [3]float64{src.h[i], src.hu[i], src.hv[i]}
				}
				if bits(dst.h[i]) != bits(want[0]) || bits(dst.hu[i]) != bits(want[1]) || bits(dst.hv[i]) != bits(want[2]) {
					t.Logf("%dx%d tile, rect (%d,%d)+%dx%d: cell (%d,%d) = (%v, %v, %v), want %v",
						w, h, x, y, rectW, rectH, cx, cy, dst.h[i], dst.hu[i], dst.hv[i], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGatherPayloadValidation(t *testing.T) {
	// Gather on a single rank round-trips the tile.
	nx, ny := 8, 6
	_, err := mpi.Run(1, tm(), func(proc *mpi.Proc) error {
		tile, err := NewTile(nx, ny, 0, 0, nx, ny, DefaultParams())
		if err != nil {
			return err
		}
		tile.Fill(GaussianHill(nx, ny, 4, 3, 0.2, 2))
		st, err := Gather(proc.World(), tile)
		if err != nil {
			return err
		}
		want := NewState(nx, ny)
		tile.Interior(want)
		if st.MaxDiff(want) != 0 {
			t.Error("gathered state differs from tile interior")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSerialStep100x100(b *testing.B) {
	tile, err := NewTile(100, 100, 0, 0, 100, 100, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	tile.Fill(GaussianHill(100, 100, 50, 50, 0.3, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tile.SetReflective()
		tile.Step()
	}
}
