package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nestwrf/internal/ensemble"
)

// runJSON invokes the CLI entry point with -json, returning the decoded
// summary and raw aggregate bytes.
func runJSON(t *testing.T, args ...string) (ensemble.Summary, string) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if code := run(append(args, "-json"), out, os.Stderr); code != 0 {
		t.Fatalf("run %v: exit %d", args, code)
	}
	raw, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	var sum ensemble.Summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("bad summary JSON %q: %v", raw, err)
	}
	agg, err := json.Marshal(sum.Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	return sum, string(agg)
}

// The CLI's kill/resume path must reproduce an uninterrupted run's
// aggregates exactly.
func TestKillResumeReproducesAggregates(t *testing.T) {
	base := []string{"-members", "90", "-steps", "5", "-seed", "13", "-workers", "4"}
	full, fullAgg := runJSON(t, base...)
	if full.Committed != 90 || full.Stopped {
		t.Fatalf("full run: %+v", full)
	}

	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	stopped, _ := runJSON(t, append(base, "-checkpoint", ckpt, "-checkpoint-every", "8", "-stop-after", "33")...)
	if !stopped.Stopped || stopped.Committed != 33 {
		t.Fatalf("stopped run: %+v", stopped)
	}
	resumed, resumedAgg := runJSON(t, append(base, "-checkpoint", ckpt)...)
	if resumed.ResumedFrom != 33 || resumed.Committed != 90 {
		t.Fatalf("resumed run: %+v", resumed)
	}
	if fullAgg != resumedAgg {
		t.Errorf("resume diverged:\nfull:    %s\nresumed: %s", fullAgg, resumedAgg)
	}

	// -fresh discards the checkpoint and starts over.
	freshRun, freshAgg := runJSON(t, append(base, "-checkpoint", ckpt, "-fresh")...)
	if freshRun.ResumedFrom != 0 || freshRun.Committed != 90 {
		t.Fatalf("fresh run: %+v", freshRun)
	}
	if freshAgg != fullAgg {
		t.Error("fresh rerun diverged from original")
	}
}

// -metrics prints the same snapshot for the same flags however the
// workers interleave: every instrument but the wall-clock *_seconds
// ones and the cache's hits and joins (which of two workers planning
// the same geometry joins the other's flight is a race) is observed in
// commit order.
func TestMetricsReproducible(t *testing.T) {
	snapshot := func() string {
		dir := t.TempDir()
		out, err := os.Create(filepath.Join(dir, "out"))
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		errs, err := os.Create(filepath.Join(dir, "metrics"))
		if err != nil {
			t.Fatal(err)
		}
		defer errs.Close()
		args := []string{"-members", "120", "-steps", "10", "-seed", "5", "-workers", "4", "-metrics", "-json"}
		if code := run(args, out, errs); code != 0 {
			t.Fatalf("run %v: exit %d", args, code)
		}
		raw, err := os.ReadFile(errs.Name())
		if err != nil {
			t.Fatal(err)
		}
		var keep []string
		for _, line := range strings.Split(string(raw), "\n") {
			if !strings.Contains(line, "_seconds") &&
				!strings.HasPrefix(line, "plancache_hits_total") && !strings.HasPrefix(line, "plancache_joins_total") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	first := snapshot()
	if !strings.Contains(first, "ensemble_improvement_pct_count 120") {
		t.Fatalf("snapshot lacks the improvement summary:\n%s", first)
	}
	for i := 0; i < 3; i++ {
		if again := snapshot(); again != first {
			t.Fatalf("metric snapshots differ between identical campaigns:\n%s\n---\n%s", first, again)
		}
	}
}

func TestBadFlagsFail(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if code := run([]string{"-gen", "chaos", "-members", "5"}, devnull, devnull); code == 0 {
		t.Error("unknown generator accepted")
	}
	if code := run([]string{"-members", "0"}, devnull, devnull); code == 0 {
		t.Error("zero members accepted")
	}
}

// A campaign whose checkpoint cannot be written still dumps -metrics
// and names the failure once, under one "ensemble: " prefix.
func TestFailedRunDumpsMetrics(t *testing.T) {
	dir := t.TempDir()
	out, err := os.Create(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	errs, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer errs.Close()
	ckpt := filepath.Join(dir, "missing", "cp.json")
	if code := run([]string{"-members", "20", "-steps", "5", "-metrics", "-checkpoint", ckpt}, out, errs); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	raw, err := os.ReadFile(errs.Name())
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, "ensemble_members_total") {
		t.Errorf("no metrics on stderr:\n%s", text)
	}
	if !strings.Contains(text, "\nensemble: checkpoint: ") || strings.Contains(text, "ensemble: ensemble:") {
		t.Errorf("stderr does not name the checkpoint failure once:\n%s", text)
	}
}
