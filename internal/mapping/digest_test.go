package mapping

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/machine"
	"nestwrf/internal/torus"
	"nestwrf/internal/vtopo"
)

// TestNodeOfDigest pins every constructor's rank-to-node assignment:
// the SHA-256 of each mapping's key and of NodeOf(r) for every rank, on
// the GridFor/TorusFor shapes of 64 to 8192 ranks. Partition maps are
// built aligned to the fold's stripes (per-partition parity), unaligned
// (global fold) and on a torus the grid does not fold onto (serpentine
// fallback). Recorded on the 24-byte coordinate tables; any change to
// how a mapping stores its nodes must reproduce it exactly.
func TestNodeOfDigest(t *testing.T) {
	const want = "9f286635306a83b872d364afe4b4487fe57fff81145e88cc9ca877a14481c2b7"
	h := sha256.New()
	var buf [12]byte
	add := func(m *Mapping, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(m.Key()))
		for r := 0; r < m.Grid.Size(); r++ {
			c := m.NodeOf(r)
			binary.LittleEndian.PutUint32(buf[0:], uint32(c.X))
			binary.LittleEndian.PutUint32(buf[4:], uint32(c.Y))
			binary.LittleEndian.PutUint32(buf[8:], uint32(c.Z))
			h.Write(buf[:])
		}
	}
	for ranks := 64; ranks <= 8192; ranks *= 2 {
		g, err := machine.GridFor(ranks)
		if err != nil {
			t.Fatal(err)
		}
		tor, err := machine.TorusFor(ranks)
		if err != nil {
			t.Fatal(err)
		}
		add(Sequential(g, tor))
		add(TXYZ(g, tor, 2))
		add(TXYZ(g, tor, 4))
		add(MultiLevel(g, tor))
		aligned := []alloc.Rect{
			{X: 0, Y: 0, W: tor.X, H: g.Py},
			{X: tor.X, Y: 0, W: g.Px - tor.X, H: tor.Y},
			{X: tor.X, Y: tor.Y, W: g.Px - tor.X, H: g.Py - tor.Y},
		}
		unaligned := []alloc.Rect{{X: 0, Y: 0, W: 1, H: g.Py}, {X: 1, Y: 0, W: g.Px - 1, H: g.Py}}
		weighted, err := alloc.Partition([]float64{0.45, 0.3, 0.15, 0.1}, g.Px, g.Py)
		if err != nil {
			t.Fatal(err)
		}
		// A torus the grid does not fold onto: same node count, one
		// z-plane.
		flat := torus.Torus{X: tor.X, Y: tor.Y * tor.Z, Z: 1}
		if _, _, err := foldParams(g, flat); err == nil {
			t.Fatalf("%d ranks: %dx%d folds onto %v", ranks, g.Px, g.Py, flat)
		}
		for _, rects := range [][]alloc.Rect{aligned, unaligned, weighted} {
			add(PartitionMapping(g, tor, rects))
			add(PartitionMapping(g, flat, rects))
		}
		add(Sequential(g, flat))
	}
	// Odd shapes: a single row and a prime grid, on tori they do not
	// fold onto.
	for _, s := range []struct{ px, py, x, y, z int }{{13, 1, 13, 1, 1}, {1, 13, 1, 1, 13}, {7, 11, 7, 11, 1}, {64, 1, 4, 4, 4}} {
		g, err := vtopo.NewGrid(s.px, s.py)
		if err != nil {
			t.Fatal(err)
		}
		tor := torus.Torus{X: s.x, Y: s.y, Z: s.z}
		add(Sequential(g, tor))
		add(PartitionMapping(g, tor, []alloc.Rect{{X: 0, Y: 0, W: s.px, H: s.py}}))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("NodeOf hashes to %s, want %s", got, want)
	}
}
