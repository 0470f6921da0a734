package wrfsim

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nestwrf/internal/output"
)

func ioOpts(s Strategy) Options {
	o := baseOptsForIO(s)
	o.OutputEverySteps = 1 // high-frequency output, the paper's §4.5 regime
	return o
}

func baseOptsForIO(s Strategy) Options {
	return Options{
		Ranks:     32,
		Steps:     3,
		Strategy:  s,
		PointCost: 1e-6,
	}
}

// Records come ordered by step and then domain name, ties in tree
// order, whatever order the tree lists its domains in. A record's size
// is a 32-byte frame, the name and three float64 fields.
func TestOutputsCaptured(t *testing.T) {
	type dom struct {
		name   string
		points int
	}
	parent, nest1, nest2 := 64*64, 60*48, 48*36
	for _, tc := range []struct {
		names [3]string // parent, nest1, nest2
		want  []dom     // one step's records
	}{
		{[3]string{"parent", "nest1", "nest2"}, []dom{{"nest1", nest1}, {"nest2", nest2}, {"parent", parent}}},
		{[3]string{"m", "z", "a"}, []dom{{"a", nest2}, {"m", parent}, {"z", nest1}}},
		{[3]string{"m", "a", "a"}, []dom{{"a", nest1}, {"a", nest2}, {"m", parent}}},
	} {
		cfg := testConfig()
		cfg.Name, cfg.Children[0].Name, cfg.Children[1].Name = tc.names[0], tc.names[1], tc.names[2]
		out, err := Run(cfg, ioOpts(Sequential))
		if err != nil {
			t.Fatal(err)
		}
		// 3 steps x (parent + 2 nests) = 9 records.
		if len(out.Snapshots) != 9 {
			t.Fatalf("%v: snapshots = %d, want 9", tc.names, len(out.Snapshots))
		}
		for i, got := range out.Snapshots {
			d := tc.want[i%3]
			if got.Domain != d.name || got.Step != 1+i/3 || got.Bytes != int64(32+len(d.name)+24*d.points) {
				t.Errorf("%v: record %d is %s step %d, %d bytes; want %s step %d, %d bytes",
					tc.names, i, got.Domain, got.Step, got.Bytes, d.name, 1+i/3, 32+len(d.name)+24*d.points)
			}
		}
	}
}

// Each record is the size and checksum of what output.Encode writes for
// its domain's fields at its step: the final state of a run stopped
// there. The fields are kept only as the run's final states, so the
// records of a 3-step run are checked against 1-, 2- and 3-step runs
// without output, whose final gathers start from no kept state.
func TestRecordsMatchEncodedStates(t *testing.T) {
	for _, s := range []Strategy{Sequential, Concurrent} {
		out, err := Run(testConfig(), ioOpts(s))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Snapshots) != 9 {
			t.Fatalf("%v: %d records, want 9", s, len(out.Snapshots))
		}
		for _, rec := range out.Snapshots {
			opt := ioOpts(s)
			opt.Steps, opt.OutputEverySteps = rec.Step, 0 // no output path in the oracle
			stop, err := Run(testConfig(), opt)
			if err != nil {
				t.Fatal(err)
			}
			st := stop.Parent
			for i, c := range testConfig().Children {
				if c.Name == rec.Domain {
					st = stop.Nests[i]
				}
			}
			var buf bytes.Buffer
			if err := output.Encode(&buf, output.Snapshot{Domain: rec.Domain, Step: rec.Step, State: st}); err != nil {
				t.Fatal(err)
			}
			b := buf.Bytes()
			crc := binary.LittleEndian.Uint32(b[len(b)-4:])
			if rec.Bytes != int64(len(b)) || rec.CRC != crc {
				t.Errorf("%v %s step %d: record %d bytes crc %08x, encoding %d bytes crc %08x",
					s, rec.Domain, rec.Step, rec.Bytes, rec.CRC, len(b), crc)
			}
		}
	}
}

// The paper's I/O claim, functionally: with high-frequency output, the
// concurrent strategy's partition-sized writer groups and overlapped
// sibling writes beat the sequential strategy's all-rank writes.
func TestConcurrentIOFasterFunctionally(t *testing.T) {
	seq, err := Run(testConfig(), ioOpts(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	con, err := Run(testConfig(), ioOpts(Concurrent))
	if err != nil {
		t.Fatal(err)
	}
	// Identical forecasts on disk: every record's size and checksum.
	if len(seq.Snapshots) != len(con.Snapshots) {
		t.Fatalf("snapshot counts differ: %d vs %d", len(seq.Snapshots), len(con.Snapshots))
	}
	for i := range seq.Snapshots {
		if a, b := seq.Snapshots[i], con.Snapshots[i]; a != b {
			t.Errorf("record %d differs: %+v vs %+v", i, a, b)
		}
	}
	t.Logf("makespan with output every step: sequential %.6f, concurrent %.6f",
		seq.MaxClock, con.MaxClock)
	if con.MaxClock >= seq.MaxClock {
		t.Errorf("concurrent with I/O %.6f should beat sequential %.6f", con.MaxClock, seq.MaxClock)
	}
	// Output must cost something: compare with a no-output run.
	noIO, err := Run(testConfig(), baseOptsForIO(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	if seq.MaxClock <= noIO.MaxClock {
		t.Error("output events should add virtual time")
	}
}

func TestOutputIntervalRespected(t *testing.T) {
	opt := baseOptsForIO(Sequential)
	opt.Steps = 4
	opt.OutputEverySteps = 2
	out, err := Run(testConfig(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Outputs at steps 2 and 4 only: 2 events x 3 domains.
	if len(out.Snapshots) != 6 {
		t.Fatalf("snapshots = %d, want 6", len(out.Snapshots))
	}
	for _, s := range out.Snapshots {
		if s.Step != 2 && s.Step != 4 {
			t.Errorf("unexpected output step %d", s.Step)
		}
	}
}
