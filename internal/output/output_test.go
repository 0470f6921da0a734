package output

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"nestwrf/internal/alloc"
	"nestwrf/internal/solver"
)

func sampleState() *solver.State {
	st := solver.NewState(12, 8)
	f := solver.GaussianHill(12, 8, 6, 4, 0.5, 2)
	for y := 0; y < 8; y++ {
		for x := 0; x < 12; x++ {
			i := st.At(x, y)
			st.H[i], st.HU[i], st.HV[i] = f(x, y)
			st.HU[i] = float64(x) * 0.01
			st.HV[i] = -float64(y) * 0.02
		}
	}
	return st
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Snapshot{Domain: "pacific", Step: 42, State: sampleState()}
	if err := Encode(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Domain != "pacific" || got.Step != 42 {
		t.Errorf("metadata = %q step %d", got.Domain, got.Step)
	}
	if got.State.NX != 12 || got.State.NY != 8 {
		t.Errorf("dims = %dx%d", got.State.NX, got.State.NY)
	}
	if d := got.State.MaxDiff(want.State); d != 0 {
		t.Errorf("fields differ by %v", d)
	}
}

func TestEncodeValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Snapshot{Domain: "", State: sampleState()}); err == nil {
		t.Error("empty domain should fail")
	}
	if err := Encode(&buf, Snapshot{Domain: "x", State: nil}); err == nil {
		t.Error("nil state should fail")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := Decode(strings.NewReader("JUNKJUNKJUNK")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeChecksumMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Snapshot{Domain: "d", Step: 1, State: sampleState()}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)/2] ^= 0xFF // flip a payload byte
	if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Snapshot{Domain: "d", Step: 1, State: sampleState()}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()/2]
	if _, err := Decode(bytes.NewReader(b)); err == nil {
		t.Error("truncated stream should fail")
	}
}

func TestDecodeCorruptHeader(t *testing.T) {
	// Valid magic and version, absurd name length.
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write([]byte{1, 0, 0, 0})       // version 1
	buf.Write([]byte{0xFF, 0xFF, 0, 1}) // huge name length
	if _, err := Decode(&buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// A header may claim up to 2^28 cells; a decoder that believed it
// before reading the fields made three 2 GiB fields for this 45-byte
// input. Fields now grow as their bytes arrive.
func TestDecodeHugeClaimAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write([]byte{1, 0, 0, 0, 1, 0, 0, 0, 'x'})  // version 1, name "x"
	buf.Write(make([]byte, 8))                      // step 0
	buf.Write([]byte{0, 0x40, 0, 0, 0, 0x40, 0, 0}) // 16384 x 16384
	buf.Write(make([]byte, 16))                     // two of 2^28 cells
	n := buf.Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(&buf)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*8*maxFieldAlloc {
		t.Errorf("decoding a %d-byte input allocated %d bytes", n, got)
	}
}

func TestWritePGM(t *testing.T) {
	st := sampleState()
	var buf bytes.Buffer
	if err := WritePGM(&buf, st, FieldH); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P5\n12 8\n255\n")) {
		t.Errorf("PGM header wrong: %q", out[:12])
	}
	wantLen := len("P5\n12 8\n255\n") + 12*8
	if len(out) != wantLen {
		t.Errorf("PGM size %d, want %d", len(out), wantLen)
	}
	// A constant field renders as all zeros without dividing by zero.
	flat := solver.NewState(4, 4)
	for i := range flat.H {
		flat.H[i] = 1
	}
	buf.Reset()
	if err := WritePGM(&buf, flat, FieldSpeed); err != nil {
		t.Fatal(err)
	}
}

func TestFieldSelection(t *testing.T) {
	st := sampleState()
	if &values(st, FieldH)[0] != &st.H[0] {
		t.Error("FieldH should return H")
	}
	if &values(st, FieldHU)[0] != &st.HU[0] {
		t.Error("FieldHU should return HU")
	}
	if &values(st, FieldHV)[0] != &st.HV[0] {
		t.Error("FieldHV should return HV")
	}
	sp := values(st, FieldSpeed)
	if len(sp) != len(st.H) {
		t.Error("speed length wrong")
	}
	for i, v := range sp {
		if v < 0 {
			t.Fatalf("speed[%d] = %v negative", i, v)
		}
	}
}

func TestASCIIArt(t *testing.T) {
	st := sampleState()
	art := ASCIIArt(st, FieldH, 12)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("art has %d rows, want 8", len(lines))
	}
	for _, l := range lines {
		if len(l) != 12 {
			t.Fatalf("row width %d, want 12", len(l))
		}
	}
	// The peak (center) should be the densest glyph.
	if !strings.Contains(art, "@") {
		t.Error("no peak glyph in art")
	}
	// Degenerate width handling.
	if got := ASCIIArt(st, FieldH, 0); got == "" {
		t.Error("zero width should fall back to full resolution")
	}
	if got := ASCIIArt(st, FieldH, 1000); got == "" {
		t.Error("excess width should clamp")
	}
}

// Encode must be stable: two encodings of the same snapshot are
// byte-identical (the format has no timestamps or randomness).
func TestEncodeDeterministic(t *testing.T) {
	s := Snapshot{Domain: "d", Step: 3, State: sampleState()}
	var a, b bytes.Buffer
	if err := Encode(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("encodings differ")
	}
}

func TestDecodeShortReader(t *testing.T) {
	// io.ReadFull failure path on the magic itself.
	if _, err := Decode(io.LimitReader(strings.NewReader(magic), 2)); err == nil {
		t.Error("short read should fail")
	}
}

func TestPartitionsSVG(t *testing.T) {
	rects := []alloc.Rect{
		{X: 0, Y: 0, W: 11, H: 14},
		{X: 11, Y: 0, W: 21, H: 15},
		{X: 11, Y: 15, W: 21, H: 17},
		{X: 0, Y: 14, W: 11, H: 18},
	}
	svg := PartitionsSVG(rects, 32, 32)
	if !strings.HasPrefix(svg, "<svg ") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Error("not a well-formed SVG document")
	}
	// One background rect + one per partition.
	if got := strings.Count(svg, "<rect "); got != 5 {
		t.Errorf("rect count = %d, want 5", got)
	}
	// Labels include dims and shares.
	if !strings.Contains(svg, "1: 11x14") || !strings.Contains(svg, "(15%)") {
		t.Errorf("labels missing:\n%s", svg)
	}
	// Grid lines appear.
	if !strings.Contains(svg, "<line ") {
		t.Error("grid lines missing")
	}
}

// Both codecs move fields through a pooled fixed chunk, so neither
// allocates a byte copy of a field: encoding a 256 x 256 state
// allocates less than one field's 512 KiB, and decoding it little more
// than the decoded state. The codecs that copied each field measured
// 1.5 MiB and 3 MiB.
func TestCodecAllocsNoFieldCopies(t *testing.T) {
	st := solver.NewState(256, 256)
	for i := range st.H {
		st.H[i] = 1 + float64(i%17)/17
	}
	s := Snapshot{Domain: "big", Step: 1, State: st}
	var enc bytes.Buffer
	if err := Encode(&enc, s); err != nil {
		t.Fatal(err)
	}
	field := 8 * float64(len(st.H))
	perCall := func(f func() error) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 5; i++ {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 5
	}
	if got := perCall(func() error { return Encode(io.Discard, s) }); got >= field {
		t.Errorf("Encode allocated %.0f bytes a call, want less than one %.0f-byte field", got, field)
	}
	got := perCall(func() error {
		_, err := Decode(bytes.NewReader(enc.Bytes()))
		return err
	})
	if want := 4 * field; got >= want {
		t.Errorf("Decode allocated %.0f bytes a call, want less than %.0f (the state and one field)", got, want)
	}
}
