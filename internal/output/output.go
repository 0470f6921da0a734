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
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)

	if _, err := mw.Write([]byte(magic)); err != nil {
		return err
	}
	hdr := []uint32{version, uint32(len(s.Domain))}
	for _, v := range hdr {
		if err := binary.Write(mw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if _, err := mw.Write([]byte(s.Domain)); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, uint64(s.Step)); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, uint32(s.State.NX)); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, uint32(s.State.NY)); err != nil {
		return err
	}
	for _, field := range [][]float64{s.State.H, s.State.HU, s.State.HV} {
		if err := binary.Write(mw, binary.LittleEndian, field); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// Decode reads one snapshot from r, verifying the checksum.
func Decode(r io.Reader) (Snapshot, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	var s Snapshot
	m := make([]byte, 4)
	if _, err := io.ReadFull(tr, m); err != nil {
		return s, err
	}
	if string(m) != magic {
		return s, ErrBadMagic
	}
	var ver, nameLen uint32
	if err := binary.Read(tr, binary.LittleEndian, &ver); err != nil {
		return s, err
	}
	if ver != version {
		return s, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	if err := binary.Read(tr, binary.LittleEndian, &nameLen); err != nil {
		return s, err
	}
	if nameLen == 0 || nameLen > 4096 {
		return s, fmt.Errorf("%w: name length %d", ErrCorrupt, nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(tr, name); err != nil {
		return s, err
	}
	s.Domain = string(name)
	var step uint64
	if err := binary.Read(tr, binary.LittleEndian, &step); err != nil {
		return s, err
	}
	s.Step = int(step)
	var nx, ny uint32
	if err := binary.Read(tr, binary.LittleEndian, &nx); err != nil {
		return s, err
	}
	if err := binary.Read(tr, binary.LittleEndian, &ny); err != nil {
		return s, err
	}
	if nx == 0 || ny == 0 || uint64(nx)*uint64(ny) > 1<<28 {
		return s, fmt.Errorf("%w: dims %dx%d", ErrCorrupt, nx, ny)
	}
	st := solver.NewState(int(nx), int(ny))
	for _, field := range [][]float64{st.H, st.HU, st.HV} {
		if err := binary.Read(tr, binary.LittleEndian, field); err != nil {
			return s, err
		}
	}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return s, err
	}
	if got != want {
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
