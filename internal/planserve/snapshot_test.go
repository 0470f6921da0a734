package planserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nestwrf/internal/driver"
	"nestwrf/internal/machine"
	"nestwrf/internal/workload"
)

// snapshotKinds are the three kinds of cached value, in the order
// savedKeys caches them.
var snapshotKinds = []string{"plan", "compare", "run"}

// ask sends srv the test query of one kind — testRequest over HTTP for
// "plan" and "compare", PlanCache.Run over cacheCfg for "run" — and
// returns whether it was a hit and the answer: the response body, or
// the driver.Result.
func ask(t *testing.T, srv *Server, kind string) (bool, any) {
	t.Helper()
	if kind == "run" {
		res, hit, err := srv.plans.Run(context.Background(), cacheCfg(), cacheOpt())
		if err != nil {
			t.Fatal(err)
		}
		return hit, res
	}
	code, cacheHdr, body := post(t, srv.Handler(), "/v1/"+kind, testRequest("concurrent", "predicted", "multilevel"))
	if code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", kind, code, body)
	}
	return cacheHdr == "hit", body
}

// savedKeys asks a fresh server each kind's test query, cold, and
// returns the cold answers by kind and the keys its snapshot holds.
func savedKeys(t *testing.T) (map[string]any, []string) {
	t.Helper()
	srv := New(Config{})
	defer srv.Close()
	cold := map[string]any{}
	for _, kind := range snapshotKinds {
		_, cold[kind] = ask(t, srv, kind)
	}
	path := filepath.Join(t.TempDir(), "plans.snap")
	if saved, err := srv.SaveSnapshot(path); err != nil || saved != len(snapshotKinds) {
		t.Fatalf("saved %d keys (%v), want %d", saved, err, len(snapshotKinds))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	return cold, snap.Keys
}

// writeKeys writes a v3 snapshot of keys to a new file and returns its
// path.
func writeKeys(t *testing.T, keys []string) string {
	t.Helper()
	data, err := json.Marshal(snapshotFile{Version: SnapshotVersion, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plans.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSnapshotRoundTripByteIdentity is the persistence acceptance
// guard: save -> restart -> warm-load must answer each kind's first
// query as a hit with a fresh server's cold answer — the same response
// bytes for plan and compare, a reflect.DeepEqual result for a run —
// and the load leaves the hit and miss counters alone.
func TestSnapshotRoundTripByteIdentity(t *testing.T) {
	cold, keys := savedKeys(t)
	if !strings.HasPrefix(keys[0], "run|") {
		t.Errorf("most recent key %.20q, want the run's", keys[0])
	}
	srv := New(Config{})
	defer srv.Close()
	loaded, rejected, err := srv.LoadSnapshot(writeKeys(t, keys))
	if err != nil || loaded != 3 || rejected != 0 {
		t.Fatalf("loaded %d rejected %d (%v), want 3/0", loaded, rejected, err)
	}
	if hits, misses, _ := srv.plans.Stats(); hits != 0 || misses != 0 {
		t.Errorf("hits %d misses %d right after the load, want 0/0", hits, misses)
	}
	for _, kind := range snapshotKinds {
		t.Run(kind, func(t *testing.T) {
			hit, warm := ask(t, srv, kind)
			if !hit {
				t.Fatal("warm query was not a hit")
			}
			if !reflect.DeepEqual(warm, cold[kind]) {
				t.Errorf("warm answer differs from a fresh server's cold one:\nwarm %v\ncold %v", warm, cold[kind])
			}
		})
	}
	if l, r, e := srv.plans.WarmStats(); l != 3 || r != 0 || e != 0 {
		t.Errorf("warm stats %d/%d/%d, want 3/0/0", l, r, e)
	}
	if hits, misses, _ := srv.plans.Stats(); hits != 3 || misses != 0 {
		t.Errorf("hits %d misses %d after the warm queries, want 3/0", hits, misses)
	}
}

// TestSnapshotRejectsCorruptFile: unreadable or corrupt snapshots, and
// v1 and v2 files, fail whole with an error and leave the server
// serving cold.
func TestSnapshotRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{})
	defer srv.Close()

	if _, _, err := srv.LoadSnapshot(filepath.Join(dir, "missing.snap")); err == nil {
		t.Error("missing file should error")
	}

	corrupt := filepath.Join(dir, "corrupt.snap")
	if err := os.WriteFile(corrupt, []byte("not json{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.LoadSnapshot(corrupt); err == nil {
		t.Error("corrupt file should error")
	}

	// v1 and v2 files held each key beside its JSON-encoded value; both
	// are refused whole by their version, not key by key. Each file also
	// lists loadable keys, so a load that skipped the version check
	// would show.
	_, keys := savedKeys(t)
	plan, err := driver.BuildPlan(cacheCfg(), cacheOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []string{"nestwrf/plan-cache/v0", "nestwrf/plan-cache/v1", "nestwrf/plan-cache/v2"} {
		data, err := json.Marshal(map[string]any{
			"version":  version,
			"machines": map[string]string{"BlueGene/L": machineKeys["BlueGene/L"]},
			"entries":  []any{map[string]any{"key": keys[2], "kind": "plan", "machine": "BlueGene/L", "value": plan}},
			"keys":     keys,
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "old.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, rejected, err := srv.LoadSnapshot(path)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %q", version)) {
			t.Errorf("%s snapshot: err %v, want a version mismatch", version, err)
		}
		if loaded != 0 || rejected != 0 {
			t.Errorf("%s snapshot: loaded %d rejected %d, want 0/0", version, loaded, rejected)
		}
	}
	if l, r, _ := srv.plans.WarmStats(); l != 0 || r != 0 {
		t.Errorf("warm stats loaded %d rejected %d, want 0/0", l, r)
	}

	// The server still plans cold after the failed loads.
	code, cacheHdr, _ := post(t, srv.Handler(), "/v1/plan", testRequest("concurrent", "predicted", "oblivious"))
	if code != http.StatusOK || cacheHdr != "miss" {
		t.Errorf("cold query after failed load: status %d cache %q", code, cacheHdr)
	}
}

// TestSnapshotRejectsBadKeys: a key that is not appendKey's rendering
// of a request the server would plan is rejected and counted, nothing
// loads from it, and the query the key was doctored from is then a
// fresh miss with a fresh server's answer. The rows whose key parses
// into a valid request — a non-canonical field, an enum out of range
// that its parser maps back into range, trailing bytes — are caught
// only by the re-render comparison.
func TestSnapshotRejectsBadKeys(t *testing.T) {
	cold, keys := savedKeys(t)
	byKind := map[string]string{}
	for _, key := range keys {
		byKind[key[:strings.IndexByte(key, '|')]] = key
	}
	bgl := machineKeys["BlueGene/L"]
	stale := machine.BGL()
	stale.PointCost *= 1.5
	unknown := machine.BGL()
	unknown.Name = "BlueGene/Q"
	swap := func(old, new string) func(string) string {
		return func(key string) string { return strings.Replace(key, old, new, 1) }
	}
	for _, row := range []struct {
		name, kind string
		doctor     func(key string) string
	}{
		{"unknown prefix", "plan", swap("plan|", "sim|")},
		{"no prefix", "plan", func(key string) string { return strings.TrimPrefix(key, "plan|") }},
		{"machine mismatch", "plan", swap(bgl, string(stale.AppendKey(nil)))},
		{"unknown machine", "compare", swap(bgl, string(unknown.AppendKey(nil)))},
		{"ranks 0", "plan", swap("|r=64|", "|r=0|")},
		{"ranks above the limit", "compare", swap("|r=64|", fmt.Sprintf("|r=%d|", maxRanks+1))},
		{"ranks 1<<21", "run", swap("|r=256|", fmt.Sprintf("|r=%d|", 1<<21))},
		{"strategy 9", "plan", swap("|s=1|", "|s=9|")},
		{"strategy -1", "run", swap("|s=1|", "|s=-1|")},
		{"alloc 4", "plan", swap("|a=0|", "|a=4|")},
		{"mapping 4", "compare", swap("|m=3|", "|m=4|")},
		{"io 2", "plan", swap("|io=0|", "|io=2|")},
		{"ranks 064", "plan", swap("|r=64|", "|r=064|")},
		{"ranks +64", "compare", swap("|r=64|", "|r=+64|")},
		{"contention 0", "plan", swap("|nc=false|", "|nc=0|")},
		{"option dropped", "plan", swap("|oe=0|", "")},
		{"invalid geometry", "plan", swap("(394,", "(3940,")},
		{"root ratio 3", "plan", swap("(286,307,1,", "(286,307,3,")},
		{"geometry 0394", "run", swap("(394,", "(0394,")},
		{"trailing bytes", "plan", func(key string) string { return key + "(1,1,1,0,0)" }},
		{"trailing separator", "run", func(key string) string { return key + "|" }},
	} {
		t.Run(row.name, func(t *testing.T) {
			doctored := row.doctor(byKind[row.kind])
			if doctored == byKind[row.kind] {
				t.Fatalf("doctor left the %s key unchanged", row.kind)
			}
			srv := New(Config{})
			defer srv.Close()
			loaded, rejected, err := srv.LoadSnapshot(writeKeys(t, []string{doctored}))
			if err != nil || loaded != 0 || rejected != 1 {
				t.Fatalf("loaded %d rejected %d (%v), want 0/1", loaded, rejected, err)
			}
			if l, r, _ := srv.plans.WarmStats(); l != 0 || r != 1 {
				t.Errorf("warm stats loaded %d rejected %d, want 0/1", l, r)
			}
			if n := srv.plans.ll.Len(); n != 0 {
				t.Errorf("%d entries resident, want 0", n)
			}
			hit, got := ask(t, srv, row.kind)
			if hit {
				t.Fatal("query after the load was a hit, want a miss")
			}
			if !reflect.DeepEqual(got, cold[row.kind]) {
				t.Errorf("answer differs from a fresh server's:\ngot  %v\nwant %v", got, cold[row.kind])
			}
		})
	}
}

// TestSnapshotCapacityAndWarmEviction: a load into a cache of capacity
// 1 loads the most recent key and rejects the rest unplanned, and a
// warm entry pushed out by later traffic is counted as a warm eviction.
func TestSnapshotCapacityAndWarmEviction(t *testing.T) {
	_, keys := savedKeys(t)
	srv := New(Config{CacheSize: 1})
	defer srv.Close()
	loaded, rejected, err := srv.LoadSnapshot(writeKeys(t, keys))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 || rejected != 2 {
		t.Fatalf("loaded %d rejected %d, want 1/2", loaded, rejected)
	}
	if hit, _ := ask(t, srv, "run"); !hit {
		t.Error("the most recent key did not load")
	}

	// A distinct cold query evicts the lone warm entry.
	post(t, srv.Handler(), "/v1/plan", `{"machine":"bgp","ranks":64,"strategy":"sequential","mapping":"oblivious","domain":{"nx":96,"ny":96}}`)
	if _, _, evicted := srv.plans.WarmStats(); evicted != 1 {
		t.Errorf("warm evictions %d, want 1", evicted)
	}
}

// smallPlanKeys returns n distinct plan keys of a two-nest tree on 64
// BG/L ranks, rendered without planning.
func smallPlanKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		cfg := cacheCfg()
		cfg.NX += i % 64
		cfg.NY += i / 64
		keys[i] = string(appendKey(nil, queryPlan.prefix, cacheOpt(), cfg))
	}
	return keys
}

// TestSnapshotLoadStopsAtClose: a Close during a load returns it
// between entries with ErrCacheClosed, before the last key is planned,
// and leaves nothing resident.
func TestSnapshotLoadStopsAtClose(t *testing.T) {
	keys := smallPlanKeys(512)
	p := NewPlanCache(len(keys))
	path := writeKeys(t, keys)
	type result struct {
		loaded, rejected int
		err              error
	}
	done := make(chan result)
	go func() {
		var r result
		r.loaded, r.rejected, r.err = p.LoadSnapshot(path)
		done <- r
	}()
	for {
		if l, _, _ := p.WarmStats(); l > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	p.Close()
	r := <-done
	if !errors.Is(r.err, ErrCacheClosed) {
		t.Errorf("load after Close: err %v, want ErrCacheClosed", r.err)
	}
	if r.loaded+r.rejected >= len(keys) {
		t.Errorf("load went through all %d keys (loaded %d rejected %d)", len(keys), r.loaded, r.rejected)
	}
	if n := p.ll.Len(); n != 0 {
		t.Errorf("%d entries resident after Close, want 0", n)
	}
}

// TestSnapshotWarmTime bounds the warm-up of 1 024 Table-2-sized plans
// on 1 024 BG/L ranks, planned one after another: measured at
// 0.34 s on a 2-core Xeon, asserted at 2 s.
func TestSnapshotWarmTime(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("plans 1 024 keys; a timing bound means nothing under -race")
	}
	opt := cacheOpt()
	opt.Ranks, opt.MapKind = 1024, driver.MapMultiLevel
	keys := make([]string, 1024)
	for i := range keys {
		cfg := workload.Table2Config()
		cfg.NX += i % 32
		cfg.NY += i / 32
		keys[i] = string(appendKey(nil, queryPlan.prefix, opt, cfg))
	}
	p := NewPlanCache(len(keys))
	defer p.Close()
	start := time.Now()
	loaded, rejected, err := p.LoadSnapshot(writeKeys(t, keys))
	took := time.Since(start)
	if err != nil || loaded != len(keys) || rejected != 0 {
		t.Fatalf("loaded %d rejected %d (%v), want %d/0", loaded, rejected, err, len(keys))
	}
	t.Logf("warmed %d plans in %v", loaded, took)
	if took > 2*time.Second {
		t.Errorf("warming %d plans took %v, want under 2s", loaded, took)
	}
}

// TestSnapshotSaveFailsAtRename: a save whose rename fails — the target
// is a directory — returns the error, leaves no temp file behind and
// leaves the directory's other contents as they were.
func TestSnapshotSaveFailsAtRename(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "plans.snap")
	for _, p := range []string{target, filepath.Join(target, "inside")} {
		if err := os.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	other := filepath.Join(dir, "other.txt")
	if err := os.WriteFile(other, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	defer srv.Close()
	ask(t, srv, "plan")
	if n, err := srv.SaveSnapshot(target); err == nil {
		t.Fatalf("save onto a directory succeeded with %d keys", n)
	}

	var names []string
	if err := filepath.WalkDir(dir, func(path string, _ os.DirEntry, err error) error {
		names = append(names, strings.TrimPrefix(path, dir))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"", "/other.txt", "/plans.snap", "/plans.snap/inside"}; !slices.Equal(names, want) {
		t.Errorf("directory after the failed save holds %q, want %q", names, want)
	}
	if data, err := os.ReadFile(other); err != nil || string(data) != "keep" {
		t.Errorf("other.txt after the failed save: %q (%v)", data, err)
	}
}

// TestConcurrentSavesNeverTear: the periodic save on cmd/planserve's
// ticker goroutine can overlap the final save at shutdown. Eight
// concurrent SaveSnapshot calls on one path, against a reader loading
// it in a loop, must never expose a file LoadSnapshot refuses, and must
// leave no temp file behind.
func TestConcurrentSavesNeverTear(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plans.snap")
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()
	for _, kind := range []string{"oblivious", "txyz", "partition", "multilevel"} {
		post(t, h, "/v1/plan", testRequest("concurrent", "predicted", kind))
	}
	if _, err := srv.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			fresh := NewPlanCache(16)
			if loaded, rejected, err := fresh.LoadSnapshot(path); err != nil || loaded != 4 || rejected != 0 {
				t.Errorf("load during concurrent saves: loaded %d rejected %d err %v", loaded, rejected, err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if n, err := srv.SaveSnapshot(path); err != nil || n != 4 {
					t.Errorf("save: %d entries, err %v", n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone

	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0].Name() != "plans.snap" {
		t.Errorf("directory after saves holds %v, want only plans.snap", left)
	}
}
