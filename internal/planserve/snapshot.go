package planserve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nestwrf/internal/driver"
)

// SnapshotVersion is the schema tag of persisted plan-cache snapshots.
// Any incompatible change to cached value encodings or to the key
// format must bump it; a mismatched snapshot is rejected whole. v2 keys
// machines by driver.AppendMachineKey (float bit patterns), v1 by
// %#v.
const SnapshotVersion = "nestwrf/plan-cache/v2"

// snapshotFile is the on-disk form of a plan cache: every resident
// entry with its canonical key and JSON-encoded value, most recently
// used first, plus the identity keys of the machines the entries were
// computed against.
type snapshotFile struct {
	Version  string            `json:"version"`
	Machines map[string]string `json:"machines"` // machine name -> full identity key at save time
	Entries  []snapshotEntry   `json:"entries"`
}

// snapshotEntry is one cached value. Kind selects the decode type
// ("plan", "compare" or "run"); Machine names the machine whose
// identity key must still appear in Key for the entry to load — a
// cost-model change between save and load silently changes every key,
// so stale entries are rejected instead of shadowing fresh plans.
type snapshotEntry struct {
	Key     string          `json:"key"`
	Kind    string          `json:"kind"`
	Machine string          `json:"machine"`
	Value   json.RawMessage `json:"value"`
}

// SaveSnapshot writes the cache's resident entries to path atomically
// (a private temp file in the same directory + rename, so concurrent
// saves and a concurrent load each see a whole file) and returns how
// many entries were persisted. Entries for machines outside the known
// set are skipped: their keys could never validate at load time.
func (p *PlanCache) SaveSnapshot(path string) (int, error) {
	names := make([]string, 0, len(machineKeys))
	for name := range machineKeys {
		names = append(names, name)
	}
	sort.Strings(names)

	snap := snapshotFile{Version: SnapshotVersion, Machines: machineKeys}
	for _, e := range p.c.dump() {
		var kind string
		switch e.val.(type) {
		case *driver.Plan:
			kind = "plan"
		case *driver.Comparison:
			kind = "compare"
		case *driver.Result:
			kind = "run"
		default:
			continue
		}
		var mname string
		for _, name := range names {
			if strings.Contains(e.key, machineKeys[name]) {
				mname = name
				break
			}
		}
		if mname == "" {
			continue
		}
		raw, err := json.Marshal(e.val)
		if err != nil {
			continue
		}
		snap.Entries = append(snap.Entries, snapshotEntry{
			Key: e.key, Kind: kind, Machine: mname, Value: raw,
		})
	}

	data, err := json.Marshal(&snap)
	if err != nil {
		return 0, fmt.Errorf("planserve: encode snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".plan-cache-*")
	if err != nil {
		return 0, err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644) // CreateTemp's 0600 would lock other readers out
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return len(snap.Entries), nil
}

// LoadSnapshot warm-loads a snapshot into the cache. A file-level
// problem (unreadable, corrupt JSON, version mismatch) returns an
// error and loads nothing; per-entry problems (unknown machine, stale
// machine identity, undecodable value, over capacity) reject just that
// entry and increment the warm-rejected counter. Loaded entries keep
// their saved recency order and are flagged warm, so later LRU churn
// shows up in the warm-evicted counter.
func (p *PlanCache) LoadSnapshot(path string) (loaded, rejected int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, 0, fmt.Errorf("planserve: snapshot %s: %w", path, err)
	}
	if snap.Version != SnapshotVersion {
		return 0, 0, fmt.Errorf("planserve: snapshot %s: version %q, want %q",
			path, snap.Version, SnapshotVersion)
	}
	for _, e := range snap.Entries {
		mkey, ok := machineKeys[e.Machine]
		if !ok || !strings.Contains(e.Key, mkey) {
			rejected++
			continue
		}
		var val any
		switch e.Kind {
		case "plan":
			plan := new(driver.Plan)
			if json.Unmarshal(e.Value, plan) != nil {
				rejected++
				continue
			}
			val = plan
		case "compare":
			cmp := new(driver.Comparison)
			if json.Unmarshal(e.Value, cmp) != nil {
				rejected++
				continue
			}
			val = cmp
		case "run":
			res := new(driver.Result)
			if json.Unmarshal(e.Value, res) != nil {
				rejected++
				continue
			}
			val = res
		default:
			rejected++
			continue
		}
		if !p.c.loadWarm(e.Key, val) {
			rejected++
			continue
		}
		loaded++
	}
	p.c.noteWarmRejected(rejected)
	return loaded, rejected, nil
}

// WarmStats reports the warm-load counters: snapshot entries loaded,
// entries rejected at load time, and warm entries later evicted by LRU
// churn.
func (p *PlanCache) WarmStats() (loaded, rejected, evicted uint64) { return p.c.WarmStats() }
