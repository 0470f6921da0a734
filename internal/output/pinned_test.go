package output

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"nestwrf/internal/solver"
)

// pinnedState is a 97 x 61 state whose encoding spans several write
// chunks and ends inside one; its cells include -0, ±Inf and NaN.
func pinnedState() *solver.State {
	st := solver.NewState(97, 61)
	for i := range st.H {
		st.H[i] = 1 + math.Sin(float64(i))
		st.HU[i] = float64(i)*0.01 - 3
		st.HV[i] = -float64(i%29) / 7
	}
	st.HU[5] = math.Copysign(0, -1)
	st.HV[6], st.HV[7], st.H[8] = math.Inf(1), math.Inf(-1), math.NaN()
	return st
}

// encodingSHA256 was recorded on the encoder that wrote each field with
// one binary.Write; any change to the format's bytes fails this test.
const encodingSHA256 = "4d1d238bcfe5dce5e50eed96bad2dbb7b55ff3cf7902b7ae819c2fc079eb99fe"

func TestEncodeBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Snapshot{Domain: "pinned", Step: 123456789, State: pinnedState()}); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != encodingSHA256 {
		t.Errorf("encoding SHA-256 %s (%d bytes), want %s", got, buf.Len(), encodingSHA256)
	}
}

// A record is the encoding's length and CRC-32 trailer.
func TestRecordOfMatchesEncode(t *testing.T) {
	for _, s := range []Snapshot{
		{Domain: "pinned", Step: 123456789, State: pinnedState()},
		{Domain: "d", Step: 1, State: sampleState()},
		{Domain: "empty", State: solver.NewState(0, 0)},
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, s); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		want := Record{Domain: s.Domain, Step: s.Step, Bytes: int64(len(b)), CRC: binary.LittleEndian.Uint32(b[len(b)-4:])}
		if got, err := RecordOf(s); err != nil || got != want {
			t.Errorf("RecordOf(%s) = %+v, %v; want %+v", s.Domain, got, err, want)
		}
	}
	if _, err := RecordOf(Snapshot{Domain: "x"}); err == nil {
		t.Error("RecordOf without a state should fail")
	}
}
