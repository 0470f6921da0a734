package planserve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nestwrf/internal/driver"
	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
)

// SnapshotVersion is the schema tag of persisted plan-cache snapshots.
// Any change to the key format must bump it; a mismatched snapshot is
// rejected whole. v3 holds keys only; v2 held each key's JSON-encoded
// value, v1 keyed machines by %#v.
const SnapshotVersion = "nestwrf/plan-cache/v3"

// snapshotFile is the on-disk form of a plan cache: the key of every
// resident entry, most recently used first. A key names everything its
// value is computed from, so values are not stored: a load plans them
// again.
type snapshotFile struct {
	Version string   `json:"version"`
	Keys    []string `json:"keys"`
}

// SaveSnapshot writes the cache's resident keys to path atomically (a
// private temp file in the same directory + rename, so concurrent saves
// and a concurrent load each see a whole file) and returns how many
// keys were persisted.
func (p *PlanCache) SaveSnapshot(path string) (int, error) {
	snap := snapshotFile{Version: SnapshotVersion}
	p.mu.Lock()
	for el := p.ll.Front(); el != nil; el = el.Next() {
		snap.Keys = append(snap.Keys, el.Value.(*lruEntry).key)
	}
	p.mu.Unlock()

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
	return len(snap.Keys), nil
}

// LoadSnapshot warm-loads a snapshot into the cache: each key is
// planned again with its kind's driver call and inserted behind the
// entries loaded before it, flagged warm, so the saved LRU order holds
// and a warm hit serves what a miss computes now. A file-level problem
// (unreadable, corrupt JSON, version mismatch) returns an error and
// loads nothing. A key requestOf refuses, a key already resident and
// any key that finds the cache full are rejected before planning; a
// key whose planning fails is rejected after it. Each rejection counts
// in the warm-rejected counter; the hit and miss counters are not
// touched. A Close stops the load between entries with ErrCacheClosed.
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
	// room reports whether key may load now (callers hold p.mu).
	room := func(key string) bool { return p.ll.Len() < p.max && p.entries[key] == nil }
	for _, key := range snap.Keys {
		q, cfg, opt, ok := requestOf(key)
		p.mu.Lock()
		ok = ok && room(key)
		p.mu.Unlock()
		var val any
		if ok {
			var perr error
			val, perr = q.compute(cfg, opt)
			ok = perr == nil
		}

		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return loaded, rejected, ErrCacheClosed
		}
		if ok && room(key) {
			p.entries[key] = p.ll.PushBack(&lruEntry{key: key, val: val, warm: true})
			loaded++
			p.warmLoaded++
			p.mWarmLoaded.Inc()
		} else {
			rejected++
			p.warmRejected++
			p.mWarmRejected.Inc()
		}
		p.mu.Unlock()
	}
	return loaded, rejected, nil
}

// requestOf reads key back into the query it names: the kind from its
// prefix, the machine from the machineKeys entry whose identity
// follows, the options from parseOptionsKey and the tree from
// parseGeometry. ok holds only when the request passes the checks an
// HTTP request gets — the rank limit, Options.Validate (its enums
// included) and nest.Validate — and appendKey renders it back to
// key byte for byte, so no field is out of range or non-canonical,
// nothing follows the tree, and a machine whose cost model changed
// since the save (its identity key with it) is not found.
func requestOf(key string) (q query, cfg *nest.Domain, opt driver.Options, ok bool) {
	rest := key
	for _, k := range [...]query{queryPlan, queryCompare, queryRun} {
		if s, found := strings.CutPrefix(key, k.prefix); found {
			q, rest = k, s
		}
	}
	var m machine.Machine
	for name, mk := range machineKeys {
		if s, found := strings.CutPrefix(rest, mk); found {
			m, _ = machine.Parse(name)
			rest = s
		}
	}
	if opt, rest, ok = parseOptionsKey(rest); !ok || q.prefix == "" || opt.Ranks > maxRanks {
		return q, nil, opt, false
	}
	opt.Machine = m
	cfg, _ = parseGeometry(rest, nil)
	ok = cfg != nil && opt.Validate() == nil && cfg.Validate() == nil &&
		string(appendKey(nil, q.prefix, opt, cfg)) == key
	return q, cfg, opt, ok
}
