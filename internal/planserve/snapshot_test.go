package planserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nestwrf/internal/machine"
)

// TestSnapshotRoundTripByteIdentity is the persistence acceptance
// guard: save -> restart -> warm-load must serve the first request as
// an X-Plan-Cache hit with a body byte-identical to the original
// server's cold-computed one, for both endpoints.
func TestSnapshotRoundTripByteIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.snap")
	planBody := testRequest("concurrent", "predicted", "multilevel")
	compareBody := testRequest("concurrent", "predicted", "partition")

	srvA := New(Config{})
	hA := srvA.Handler()
	_, _, wantPlan := post(t, hA, "/v1/plan", planBody)
	_, _, wantCompare := post(t, hA, "/v1/compare", compareBody)
	saved, err := srvA.SaveSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if saved != 2 {
		t.Fatalf("saved %d entries, want 2", saved)
	}
	srvA.Close()

	srvB := New(Config{})
	defer srvB.Close()
	loaded, rejected, err := srvB.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 2 || rejected != 0 {
		t.Fatalf("loaded %d rejected %d, want 2/0", loaded, rejected)
	}
	hB := srvB.Handler()
	code, cacheHdr, gotPlan := post(t, hB, "/v1/plan", planBody)
	if code != http.StatusOK || cacheHdr != "hit" {
		t.Fatalf("warm plan: status %d cache %q, want 200 hit", code, cacheHdr)
	}
	if !bytes.Equal(wantPlan, gotPlan) {
		t.Errorf("warm plan body differs from original:\nwant %s\ngot  %s", wantPlan, gotPlan)
	}
	code, cacheHdr, gotCompare := post(t, hB, "/v1/compare", compareBody)
	if code != http.StatusOK || cacheHdr != "hit" {
		t.Fatalf("warm compare: status %d cache %q, want 200 hit", code, cacheHdr)
	}
	if !bytes.Equal(wantCompare, gotCompare) {
		t.Error("warm compare body differs from original")
	}
	if l, r, e := srvB.plans.WarmStats(); l != 2 || r != 0 || e != 0 {
		t.Errorf("warm stats %d/%d/%d, want 2/0/0", l, r, e)
	}
	if hits, misses, _ := srvB.plans.Stats(); hits != 2 || misses != 0 {
		t.Errorf("hits %d misses %d after warm load, want 2/0", hits, misses)
	}
}

// TestSnapshotRejectsCorruptFile: unreadable or corrupt snapshots fail
// whole with an error and leave the server serving cold.
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

	stale := filepath.Join(dir, "stale.snap")
	if err := os.WriteFile(stale, []byte(`{"version":"nestwrf/plan-cache/v0","entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.LoadSnapshot(stale); err == nil {
		t.Error("version mismatch should error")
	}

	// A v1 file, as the %#v-keyed format wrote it, is refused whole by
	// its version — not entry by entry as stale machines.
	v1 := filepath.Join(dir, "v1.snap")
	writeV1Snapshot(t, v1)
	loaded, rejected, err := srv.LoadSnapshot(v1)
	if err == nil || !strings.Contains(err.Error(), `version "nestwrf/plan-cache/v1"`) {
		t.Errorf("v1 snapshot: err %v, want a version mismatch", err)
	}
	if loaded != 0 || rejected != 0 {
		t.Errorf("v1 snapshot: loaded %d rejected %d, want 0/0", loaded, rejected)
	}
	if l, r, _ := srv.plans.WarmStats(); l != 0 || r != 0 {
		t.Errorf("v1 snapshot: warm stats loaded %d rejected %d, want 0/0", l, r)
	}

	// The server still plans cold after the failed loads.
	code, cacheHdr, _ := post(t, srv.Handler(), "/v1/plan", testRequest("concurrent", "predicted", "oblivious"))
	if code != http.StatusOK || cacheHdr != "miss" {
		t.Errorf("cold query after failed load: status %d cache %q", code, cacheHdr)
	}
}

// writeV1Snapshot writes one plan entry in the v1 format: version
// "nestwrf/plan-cache/v1", machines keyed by their %#v rendering.
func writeV1Snapshot(t *testing.T, path string) {
	t.Helper()
	srv := New(Config{})
	defer srv.Close()
	post(t, srv.Handler(), "/v1/plan", testRequest("concurrent", "predicted", "oblivious"))
	if _, err := srv.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Version = "nestwrf/plan-cache/v1"
	for _, m := range []machine.Machine{machine.BGL(), machine.BGP()} {
		old := fmt.Sprintf("%#v", m)
		for i := range snap.Entries {
			snap.Entries[i].Key = strings.Replace(snap.Entries[i].Key, snap.Machines[m.Name], old, 1)
		}
		snap.Machines[m.Name] = old
	}
	if data, err = json.Marshal(&snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRejectsMachineMismatch: entries whose machine identity
// no longer matches the running binary's cost model (or names an
// unknown machine) are rejected one by one with the counter bumped.
func TestSnapshotRejectsMachineMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.snap")
	srvA := New(Config{})
	hA := srvA.Handler()
	post(t, hA, "/v1/plan", testRequest("concurrent", "predicted", "multilevel"))
	if _, err := srvA.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	srvA.Close()

	// Doctor the snapshot: one entry with a stale identity key, one for
	// a machine this binary does not know.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != 1 {
		t.Fatalf("expected 1 entry, got %d", len(snap.Entries))
	}
	stale := snap.Entries[0]
	stale.Key = "plan|machine.Machine{Name:\"BlueGene/L\", stale:true}|r=64|"
	unknown := snap.Entries[0]
	unknown.Machine = "BlueGene/Q"
	snap.Entries = []snapshotEntry{stale, unknown}
	data, _ = json.Marshal(&snap)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srvB := New(Config{})
	defer srvB.Close()
	loaded, rejected, err := srvB.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 0 || rejected != 2 {
		t.Fatalf("loaded %d rejected %d, want 0/2", loaded, rejected)
	}
	if l, r, _ := srvB.plans.WarmStats(); l != 0 || r != 2 {
		t.Errorf("warm stats loaded %d rejected %d, want 0/2", l, r)
	}
}

// TestSnapshotRejectsInvalidGeometry: a hit is served before any
// validation, so a snapshot entry whose key holds a tree nest.Validate
// refuses — here a nest larger than its parent — must not load, and the
// request with that geometry must still get its 400.
func TestSnapshotRejectsInvalidGeometry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.snap")
	valid := testRequest("concurrent", "predicted", "multilevel")
	srvA := New(Config{})
	post(t, srvA.Handler(), "/v1/plan", valid)
	if _, err := srvA.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	srvA.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != 1 || !strings.Contains(snap.Entries[0].Key, "(394,") {
		t.Fatalf("unexpected snapshot entries %+v", snap.Entries)
	}
	snap.Entries[0].Key = strings.Replace(snap.Entries[0].Key, "(394,", "(3940,", 1)
	data, _ = json.Marshal(&snap)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srvB := New(Config{})
	defer srvB.Close()
	loaded, rejected, err := srvB.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 0 || rejected != 1 {
		t.Errorf("loaded %d rejected %d, want 0/1", loaded, rejected)
	}
	if l, r, _ := srvB.plans.WarmStats(); l != 0 || r != 1 {
		t.Errorf("warm stats loaded %d rejected %d, want 0/1", l, r)
	}
	invalid := strings.Replace(valid, `"nx": 394`, `"nx": 3940`, 1)
	if code, cacheHdr, body := post(t, srvB.Handler(), "/v1/plan", invalid); code != http.StatusBadRequest {
		t.Errorf("oversized nest after load: status %d cache %q, want 400: %s", code, cacheHdr, body)
	}
}

// TestSnapshotRejectsExtraSiblings: a hit renames the stored result's
// siblings from the request's first-level children, so an entry whose
// value reports more siblings than its key's root has children must
// not load; the request is then a cold miss with a fresh server's body
// instead of a panic.
func TestSnapshotRejectsExtraSiblings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.snap")
	body := testRequest("concurrent", "predicted", "multilevel")
	srvA := New(Config{})
	_, _, want := post(t, srvA.Handler(), "/v1/plan", body)
	if _, err := srvA.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	srvA.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != 1 || snap.Entries[0].Kind != "plan" {
		t.Fatalf("unexpected snapshot entries %+v", snap.Entries)
	}
	var plan map[string]any
	if err := json.Unmarshal(snap.Entries[0].Value, &plan); err != nil {
		t.Fatal(err)
	}
	cost := plan["Cost"].(map[string]any)
	sibs := cost["Siblings"].([]any)
	cost["Siblings"] = append(sibs, sibs...)
	if snap.Entries[0].Value, err = json.Marshal(plan); err != nil {
		t.Fatal(err)
	}
	data, _ = json.Marshal(&snap)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srvB := New(Config{})
	defer srvB.Close()
	loaded, rejected, err := srvB.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 0 || rejected != 1 {
		t.Errorf("loaded %d rejected %d, want 0/1", loaded, rejected)
	}
	if l, r, _ := srvB.plans.WarmStats(); l != 0 || r != 1 {
		t.Errorf("warm stats loaded %d rejected %d, want 0/1", l, r)
	}
	code, cacheHdr, got := post(t, srvB.Handler(), "/v1/plan", body)
	if code != http.StatusOK || cacheHdr != "miss" {
		t.Fatalf("after load: status %d cache %q, want 200 miss: %s", code, cacheHdr, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("after load: body differs from a fresh server's:\nwant %s\ngot  %s", want, got)
	}
}

// TestSnapshotRejectsPlanValueMismatch: a hit serves a plan entry's
// weights and rectangles by sibling index, so an entry whose value
// disagrees with its key's root — a weight or rectangle missing, or
// rectangles that do not tile the plan's own grid — must not load; the
// request is then a cold miss with a fresh server's body instead of a
// hit with zero-valued siblings.
func TestSnapshotRejectsPlanValueMismatch(t *testing.T) {
	rejectsDoctored(t, "plan", map[string]func(plan map[string]any){
		"weight dropped":    func(plan map[string]any) { plan["Weights"] = plan["Weights"].([]any)[:1] },
		"rectangle dropped": func(plan map[string]any) { plan["Rects"] = plan["Rects"].([]any)[:1] },
		"rectangles overlap": func(plan map[string]any) {
			rects := plan["Rects"].([]any)
			rects[1] = rects[0]
		},
		"grid widened": func(plan map[string]any) { plan["Px"] = plan["Px"].(float64) + 1 },
	})
}

// TestSnapshotRejectsPlanMappingMismatch: a hit serves a plan entry's
// mapping report as saved, so an entry whose report names a kind that
// is not one of the four, lists a sibling average too few, or carries a
// negative hop average must not load. (A non-finite average cannot be
// written in JSON at all.)
func TestSnapshotRejectsPlanMappingMismatch(t *testing.T) {
	quality := func(plan map[string]any, kind string) map[string]any {
		return plan["Mapping"].(map[string]any)[kind].(map[string]any)
	}
	rejectsDoctored(t, "plan", map[string]func(plan map[string]any){
		"unknown kind": func(plan map[string]any) {
			report := plan["Mapping"].(map[string]any)
			report["sequential"] = report["oblivious"]
			delete(report, "oblivious")
		},
		"sibling average dropped": func(plan map[string]any) {
			q := quality(plan, "partition")
			q["SiblingAvgHops"] = q["SiblingAvgHops"].([]any)[1:]
		},
		"sibling average added": func(plan map[string]any) {
			q := quality(plan, "txyz")
			q["SiblingAvgHops"] = append(q["SiblingAvgHops"].([]any), 1.0)
		},
		"negative parent average":  func(plan map[string]any) { quality(plan, "multilevel")["ParentAvgHops"] = -0.5 },
		"negative sibling average": func(plan map[string]any) { quality(plan, "oblivious")["SiblingAvgHops"].([]any)[0] = -1.0 },
		"negative overall average": func(plan map[string]any) { quality(plan, "txyz")["OverallAvgHops"] = -2.0 },
	})
}

// rejectsDoctored saves a server's entry of one kind ("plan",
// "compare" or "run") for one request, applies each doctor to the
// snapshot's entry value, and asserts a fresh server rejects the
// doctored entry and answers the request as a cold miss with the first
// server's answer.
func rejectsDoctored(t *testing.T, kind string, doctors map[string]func(val map[string]any)) {
	t.Helper()
	// ask sends the kind's request to srv and returns its cache outcome
	// and answer.
	ask := func(t *testing.T, srv *Server) (string, []byte) {
		t.Helper()
		if kind == "run" {
			res, hit, err := srv.plans.Run(context.Background(), cacheCfg(), cacheOpt())
			if err != nil {
				t.Fatal(err)
			}
			body, _ := json.Marshal(res)
			return map[bool]string{false: "miss", true: "hit"}[hit], body
		}
		code, cacheHdr, body := post(t, srv.Handler(), "/v1/"+kind, testRequest("concurrent", "predicted", "multilevel"))
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		return cacheHdr, body
	}
	path := filepath.Join(t.TempDir(), "plans.snap")
	srvA := New(Config{})
	_, want := ask(t, srvA)
	if _, err := srvA.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	srvA.Close()
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, doctor := range doctors {
		t.Run(name, func(t *testing.T) {
			var snap snapshotFile
			if err := json.Unmarshal(saved, &snap); err != nil {
				t.Fatal(err)
			}
			if len(snap.Entries) != 1 || snap.Entries[0].Kind != kind {
				t.Fatalf("unexpected snapshot entries %+v", snap.Entries)
			}
			var val map[string]any
			if err := json.Unmarshal(snap.Entries[0].Value, &val); err != nil {
				t.Fatal(err)
			}
			doctor(val)
			if snap.Entries[0].Value, err = json.Marshal(val); err != nil {
				t.Fatal(err)
			}
			data, _ := json.Marshal(&snap)
			doctored := filepath.Join(t.TempDir(), "plans.snap")
			if err := os.WriteFile(doctored, data, 0o644); err != nil {
				t.Fatal(err)
			}

			srvB := New(Config{})
			defer srvB.Close()
			loaded, rejected, err := srvB.LoadSnapshot(doctored)
			if err != nil {
				t.Fatal(err)
			}
			if loaded != 0 || rejected != 1 {
				t.Errorf("loaded %d rejected %d, want 0/1", loaded, rejected)
			}
			cacheHdr, got := ask(t, srvB)
			if cacheHdr != "miss" {
				t.Fatalf("after load: cache %q, want miss: %s", cacheHdr, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("after load: answer differs from a fresh server's:\nwant %s\ngot  %s", want, got)
			}
		})
	}
}

// TestSnapshotRejectsDoctoredNumbers: a hit serves a plan's Cost, a
// comparison's Default and Concurrent and a run's result as saved, so
// an entry with a negative iteration, I/O, wait or hop figure, a
// negative sibling step or phase time, or a sibling on no ranks must
// not load; the request is then a cold miss with a fresh server's
// answer.
func TestSnapshotRejectsDoctoredNumbers(t *testing.T) {
	sibling := func(res map[string]any, i int) map[string]any {
		return res["Siblings"].([]any)[i].(map[string]any)
	}
	sub := func(val map[string]any, field string) map[string]any { return val[field].(map[string]any) }
	rejectsDoctored(t, "plan", map[string]func(val map[string]any){
		"cost: negative iteration time": func(v map[string]any) { sub(v, "Cost")["IterTime"] = -1.0 },
		"cost: negative I/O time":       func(v map[string]any) { sub(v, "Cost")["IOTime"] = -1e-3 },
		"cost: negative mean wait":      func(v map[string]any) { sub(v, "Cost")["WaitAvg"] = -0.5 },
		"cost: negative worst wait":     func(v map[string]any) { sub(v, "Cost")["WaitMax"] = -0.5 },
		"cost: negative hop average":    func(v map[string]any) { sub(v, "Cost")["HopsAvg"] = -2.0 },
		"cost: negative step time":      func(v map[string]any) { sibling(sub(v, "Cost"), 0)["StepTime"] = -1.0 },
		"cost: negative phase time":     func(v map[string]any) { sibling(sub(v, "Cost"), 1)["PhaseTime"] = -1.0 },
		"cost: sibling on no ranks":     func(v map[string]any) { sibling(sub(v, "Cost"), 0)["Ranks"] = 0 },
	})
	rejectsDoctored(t, "compare", map[string]func(val map[string]any){
		"compare: negative default iteration time": func(v map[string]any) { sub(v, "Default")["IterTime"] = -1.0 },
		"compare: negative concurrent worst wait":  func(v map[string]any) { sub(v, "Concurrent")["WaitMax"] = -1.0 },
		"compare: negative default phase time":     func(v map[string]any) { sibling(sub(v, "Default"), 1)["PhaseTime"] = -1.0 },
		"compare: concurrent sibling on no ranks":  func(v map[string]any) { sibling(sub(v, "Concurrent"), 0)["Ranks"] = -4 },
	})
	rejectsDoctored(t, "run", map[string]func(val map[string]any){
		"run: negative iteration time": func(v map[string]any) { v["IterTime"] = -1.0 },
		"run: negative hop average":    func(v map[string]any) { v["HopsAvg"] = -1.0 },
		"run: negative step time":      func(v map[string]any) { sibling(v, 1)["StepTime"] = -1.0 },
		"run: sibling on no ranks":     func(v map[string]any) { sibling(v, 0)["Ranks"] = 0 },
	})
}

// TestValidGeometry: the snapshot's geometry check accepts every key a
// valid tree renders to and nothing that is not appendDomainKey's
// rendering of a valid root.
func TestValidGeometry(t *testing.T) {
	key := string(appendDomainKey(nil, cacheCfg()))
	if validGeometry(key) == nil {
		t.Fatalf("valid tree %s rejected", key)
	}
	for _, seg := range []string{
		"", "(", ")", "()", key[:len(key)-1], key + ")", key + "(1,1,1,0,0)", " " + key,
		"(286,307,3,0,0)", "(286,307,1,7,0)", "(286,307,1,0)", "(286,307,1,0,0,0)",
		"(286,x,1,0,0)", "(286,307,1,0,0(100,100,3,0,0)", "(0,307,1,0,0)",
		"(286,307,1,0,0(900,100,3,0,0))", "(286,307,1,0,0(100,100,0,0,0))",
	} {
		if validGeometry(seg) != nil {
			t.Errorf("validGeometry(%q) = non-nil", seg)
		}
	}
}

// TestSnapshotCapacityAndWarmEviction: loading past capacity rejects
// the overflow, and warm entries pushed out by later traffic are
// counted as warm evictions.
func TestSnapshotCapacityAndWarmEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.snap")
	srvA := New(Config{})
	hA := srvA.Handler()
	post(t, hA, "/v1/plan", testRequest("concurrent", "predicted", "multilevel"))
	post(t, hA, "/v1/plan", testRequest("sequential", "equal", "txyz"))
	if saved, _ := srvA.SaveSnapshot(path); saved != 2 {
		t.Fatalf("saved %d, want 2", saved)
	}
	srvA.Close()

	srvB := New(Config{CacheSize: 1})
	defer srvB.Close()
	loaded, rejected, err := srvB.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 || rejected != 1 {
		t.Fatalf("loaded %d rejected %d, want 1/1", loaded, rejected)
	}

	// A distinct cold query evicts the lone warm entry.
	post(t, srvB.Handler(), "/v1/plan", `{"machine":"bgp","ranks":64,"strategy":"sequential","mapping":"oblivious","domain":{"nx":96,"ny":96}}`)
	if _, _, evicted := srvB.plans.WarmStats(); evicted != 1 {
		t.Errorf("warm evictions %d, want 1", evicted)
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
