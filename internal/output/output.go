// Package output implements the forecast-output substrate: a compact
// self-describing binary format for solver states (the stand-in for
// WRF's wrfout NetCDF files, whose write costs Section 4.5 of the paper
// analyzes) and a portable greymap renderer for the simultaneous
// visualization the paper's introduction motivates.
package output

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"nestwrf/internal/solver"
)

// Format constants.
const (
	magic   = "NWRF"
	version = 1
)

// Errors returned by the decoder.
var (
	ErrBadMagic    = errors.New("output: not a nestwrf forecast file")
	ErrBadVersion  = errors.New("output: unsupported format version")
	ErrBadChecksum = errors.New("output: checksum mismatch")
	ErrCorrupt     = errors.New("output: corrupt header")
)

// Snapshot is one forecast record: a domain state at a simulation step.
type Snapshot struct {
	Domain string
	Step   int
	State  *solver.State
}

// Record is what writing a snapshot leaves behind: its domain and step,
// and the length and CRC-32 trailer of its encoding.
type Record struct {
	Domain string
	Step   int
	Bytes  int64
	CRC    uint32
}

// RecordOf encodes s into a writer that keeps only the encoding's
// length and trailer.
func RecordOf(s Snapshot) (Record, error) {
	var t tally
	if err := Encode(&t, s); err != nil {
		return Record{}, err
	}
	return Record{Domain: s.Domain, Step: s.Step, Bytes: t.n, CRC: le.Uint32(t.tail[:])}, nil
}

// tally discards what it is given, keeping its length and the last
// four bytes of its last write of at least four, which for Encode is
// the trailer: Encode writes it in one piece.
type tally struct {
	n    int64
	tail [4]byte
}

func (t *tally) Write(p []byte) (int, error) {
	t.n += int64(len(p))
	if len(p) >= len(t.tail) {
		copy(t.tail[:], p[len(p)-len(t.tail):])
	}
	return len(p), nil
}

var le = binary.LittleEndian

// chunkLen is the size of the buffer both codecs move field bytes
// through, a multiple of 8 so that no value straddles two chunks.
const chunkLen = 64 << 10

// maxFieldAlloc is the most cells Decode allocates for a field before
// its bytes arrive: 8 MiB, more than any domain of the paper has.
const maxFieldAlloc = 1 << 20

// chunks recycles the codecs' buffers, so neither allocates per field.
var chunks = sync.Pool{New: func() any { return new([chunkLen]byte) }}

// Encode writes the snapshot to w:
//
//	magic[4] version[u32] nameLen[u32] name
//	step[u64] nx[u32] ny[u32]
//	H[nx*ny]f64  HU[...]  HV[...]
//	crc32(payload)[u32]
func Encode(w io.Writer, s Snapshot) error {
	if s.State == nil || len(s.Domain) == 0 {
		return fmt.Errorf("output: snapshot needs a domain name and state")
	}
	chunk := chunks.Get().(*[chunkLen]byte)
	defer chunks.Put(chunk)
	var sum uint32
	emit := func(b []byte) error {
		sum = crc32.Update(sum, crc32.IEEETable, b)
		_, err := w.Write(b)
		return err
	}
	b := append(chunk[:0], magic...)
	b = le.AppendUint32(b, version)
	b = le.AppendUint32(b, uint32(len(s.Domain)))
	b = append(b, s.Domain...)
	b = le.AppendUint64(b, uint64(s.Step))
	b = le.AppendUint32(b, uint32(s.State.NX))
	b = le.AppendUint32(b, uint32(s.State.NY))
	if err := emit(b); err != nil {
		return err
	}
	for _, field := range [][]float64{s.State.H, s.State.HU, s.State.HV} {
		for len(field) > 0 {
			n := min(len(field), chunkLen/8)
			b := chunk[:8*n]
			for i, v := range field[:n] {
				le.PutUint64(b[8*i:], math.Float64bits(v))
			}
			if err := emit(b); err != nil {
				return err
			}
			field = field[n:]
		}
	}
	_, err := w.Write(le.AppendUint32(chunk[:0], sum))
	return err
}

// Decode reads one snapshot from r, verifying the checksum.
func Decode(r io.Reader) (Snapshot, error) {
	chunk := chunks.Get().(*[chunkLen]byte)
	defer chunks.Put(chunk)
	var sum uint32
	// read reads the record's next n bytes into the chunk and adds them
	// to the checksum.
	read := func(n int) ([]byte, error) {
		b := chunk[:n]
		_, err := io.ReadFull(r, b)
		sum = crc32.Update(sum, crc32.IEEETable, b)
		return b, err
	}

	var s Snapshot
	b, err := read(4)
	if err != nil {
		return s, err
	}
	if string(b) != magic {
		return s, ErrBadMagic
	}
	if b, err = read(4); err != nil {
		return s, err
	}
	if ver := le.Uint32(b); ver != version {
		return s, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	if b, err = read(4); err != nil {
		return s, err
	}
	nameLen := le.Uint32(b)
	if nameLen == 0 || nameLen > 4096 {
		return s, fmt.Errorf("%w: name length %d", ErrCorrupt, nameLen)
	}
	if b, err = read(int(nameLen)); err != nil {
		return s, err
	}
	s.Domain = string(b)
	if b, err = read(8); err != nil {
		return s, err
	}
	s.Step = int(le.Uint64(b))
	if b, err = read(4); err != nil {
		return s, err
	}
	nx := le.Uint32(b)
	if b, err = read(4); err != nil {
		return s, err
	}
	ny := le.Uint32(b)
	if nx == 0 || ny == 0 || uint64(nx)*uint64(ny) > 1<<28 {
		return s, fmt.Errorf("%w: dims %dx%d", ErrCorrupt, nx, ny)
	}
	n := int(nx) * int(ny)
	st := &solver.State{NX: int(nx), NY: int(ny)}
	for _, field := range []*[]float64{&st.H, &st.HU, &st.HV} {
		// A field grows as its bytes arrive, so a header that claims
		// more cells than the input holds costs at most maxFieldAlloc.
		f := make([]float64, 0, min(n, maxFieldAlloc))
		for len(f) < n {
			k := min(n-len(f), chunkLen/8)
			if b, err = read(8 * k); err != nil {
				if err == io.EOF && len(f) > 0 {
					err = io.ErrUnexpectedEOF // the field, not the chunk, was cut short
				}
				return s, err
			}
			for i := range k {
				f = append(f, math.Float64frombits(le.Uint64(b[8*i:])))
			}
		}
		*field = f
	}
	if _, err := io.ReadFull(r, chunk[:4]); err != nil {
		return s, err
	}
	if le.Uint32(chunk[:4]) != sum {
		return s, ErrBadChecksum
	}
	s.State = st
	return s, nil
}

// Field selects which state variable to render.
type Field int

// Renderable fields.
const (
	FieldH Field = iota
	FieldHU
	FieldHV
	FieldSpeed // |(hu, hv)| / h
)

// values extracts the selected field.
func values(st *solver.State, f Field) []float64 {
	switch f {
	case FieldHU:
		return st.HU
	case FieldHV:
		return st.HV
	case FieldSpeed:
		out := make([]float64, len(st.H))
		for i := range out {
			if st.H[i] > 0 {
				out[i] = math.Hypot(st.HU[i], st.HV[i]) / st.H[i]
			}
		}
		return out
	default:
		return st.H
	}
}

// WritePGM renders the field as a binary 8-bit PGM greymap, min-max
// normalized — enough for any image viewer to display the forecast, the
// "simultaneous online visualization" of the paper's introduction.
func WritePGM(w io.Writer, st *solver.State, f Field) error {
	vals := values(st, f)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	scale := 0.0
	if hi > lo {
		scale = 255 / (hi - lo)
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", st.NX, st.NY); err != nil {
		return err
	}
	// PGM rows run top to bottom; our y axis runs south to north.
	for y := st.NY - 1; y >= 0; y-- {
		for x := 0; x < st.NX; x++ {
			v := vals[st.At(x, y)]
			if err := bw.WriteByte(byte((v - lo) * scale)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ASCIIArt renders a coarse text heatmap of the field (width columns),
// handy for terminal demos and tests.
func ASCIIArt(st *solver.State, f Field, width int) string {
	if width <= 0 || width > st.NX {
		width = st.NX
	}
	height := width * st.NY / st.NX
	if height < 1 {
		height = 1
	}
	vals := values(st, f)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	ramp := []byte(" .:-=+*#%@")
	var b []byte
	for row := height - 1; row >= 0; row-- {
		y := row * st.NY / height
		for col := 0; col < width; col++ {
			x := col * st.NX / width
			v := vals[st.At(x, y)]
			idx := 0
			if hi > lo {
				idx = int((v - lo) / (hi - lo) * float64(len(ramp)-1))
			}
			b = append(b, ramp[idx])
		}
		b = append(b, '\n')
	}
	return string(b)
}
