package ensemble

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// malformedCheckpoints parse as JSON and carry the right version, yet
// each would panic on the first Ingest after a resume.
var malformedCheckpoints = map[string]string{
	"missing streams": `{"version":"nestwrf/ensemble-checkpoint/v1","committed":0,"aggregates":{}}`,
	"nil estimator": `{"version":"nestwrf/ensemble-checkpoint/v1","committed":0,"aggregates":{` +
		`"default_time":{"quantiles":[null]},"concurrent_time":{},"improvement_pct":{}}}`,
	"negative count": `{"version":"nestwrf/ensemble-checkpoint/v1","committed":0,"aggregates":{` +
		`"default_time":{"quantiles":[{"p":0.5,"count":-3}]},"concurrent_time":{},"improvement_pct":{}}}`,
}

func TestLoadCheckpointRejectsMalformed(t *testing.T) {
	for name, body := range malformedCheckpoints {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.ckpt")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadCheckpoint(path); !errors.Is(err, ErrBadCheckpoint) {
				t.Errorf("err = %v, want ErrBadCheckpoint", err)
			}
		})
	}
}

// A checkpoint is readable by other users, as a plan-cache snapshot
// is: the temp file it is renamed from starts at CreateTemp's 0600.
func TestCheckpointReadableByOthers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	spec := Spec{Generator: GenMixed, Members: 4, Seed: 3, Ranks: 256, StepsPerPhase: 5}
	if _, err := (&Engine{Spec: spec, Cache: sharedCache, CheckpointPath: path}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mode := fi.Mode().Perm(); mode != 0o644 {
		t.Errorf("checkpoint mode %v, want -rw-r--r--", mode)
	}
}

// FuzzLoadCheckpoint: decoding a checkpoint never panics, and one it
// accepts can take the next member. The seeds stay short: the fuzzer
// minimizes every new input, and its time grows with input length.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add([]byte(`{"version":"nestwrf/ensemble-checkpoint/v1","committed":3,"aggregates":{` +
		`"default_time":{"count":3,"quantiles":[{"p":0.5,"count":3}]},"concurrent_time":{},"improvement_pct":{}}}`))
	for _, body := range malformedCheckpoints {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		cp, err := decodeCheckpoint(raw)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("err = %v, want ErrBadCheckpoint", err)
			}
			return
		}
		cp.Aggregates.Ingest(MemberResult{Default: 2, Concurrent: 1, ImprovementPct: 50})
	})
}
