package planserve

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"nestwrf/internal/alloc"
	"nestwrf/internal/driver"
	"nestwrf/internal/nest"
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
	// Entries are immutable but for their stored bodies, so they are
	// collected under the lock and encoded after it.
	p.mu.Lock()
	resident := make([]*lruEntry, 0, p.ll.Len())
	for el := p.ll.Front(); el != nil; el = el.Next() {
		resident = append(resident, el.Value.(*lruEntry))
	}
	p.mu.Unlock()

	snap := snapshotFile{Version: SnapshotVersion, Machines: machineKeys}
	for _, e := range resident {
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
		var mname string // a key holds one machine segment: at most one name matches
		for name, mkey := range machineKeys {
			if strings.Contains(e.key, mkey) {
				mname = name
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
// machine identity, invalid geometry, undecodable value, a value that
// does not fit the key's root, over capacity) reject just that entry
// and increment the warm-rejected counter. A hit is served
// without validation, so an entry loads only when its key's geometry
// is a tree nest.Validate accepts and its value fits that tree. Loaded
// entries keep their saved recency order and are flagged warm, so
// later LRU churn shows up in the warm-evicted counter.
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
	warm := make([]*lruEntry, 0, len(snap.Entries))
	for _, e := range snap.Entries {
		mkey, ok := machineKeys[e.Machine]
		root := validGeometry(e.Key[strings.LastIndexByte(e.Key, '|')+1:])
		if !ok || !strings.Contains(e.Key, mkey) || root == nil {
			rejected++
			continue
		}
		var val any
		switch e.Kind {
		case "plan":
			val = new(driver.Plan)
		case "compare":
			val = new(driver.Comparison)
		case "run":
			val = new(driver.Result)
		}
		if val == nil || json.Unmarshal(e.Value, val) != nil || !valueFits(val, len(root.Children)) {
			rejected++
			continue
		}
		warm = append(warm, &lruEntry{key: e.Key, val: val, warm: true})
	}

	// Each entry lands behind the previously loaded ones, reconstructing
	// the saved LRU order; the hit/miss counters are not touched.
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range warm {
		if p.closed || p.ll.Len() >= p.max || p.entries[e.key] != nil {
			rejected++
			continue
		}
		p.entries[e.key] = p.ll.PushBack(e)
		loaded++
	}
	p.warmLoaded += uint64(loaded)
	p.mWarmLoaded.Add(float64(loaded))
	p.warmRejected += uint64(rejected)
	p.mWarmRejected.Add(float64(rejected))
	return loaded, rejected, nil
}

// validGeometry parses seg, a key's geometry segment, and returns its
// root when seg is appendDomainKey's rendering of a root (ratio 1,
// offsets 0, as nest.Root sets them) whose tree nest.Validate accepts;
// otherwise nil.
func validGeometry(seg string) *nest.Domain {
	root, rest := parseGeometry(seg, nil)
	if root == nil || rest != "" || root.Validate() != nil {
		return nil
	}
	return root
}

// valueFits reports whether val, a decoded snapshot value, fits a key
// whose root has n children: every driver.Result in it passes
// resultFits, and a plan has n finite weights, n rectangles tiling its
// Px x Py grid, and a mapping report keyed by kind names with n sibling
// averages and no negative or non-finite hop average.
func valueFits(val any, n int) bool {
	switch v := val.(type) {
	case *driver.Plan:
		for name, q := range v.Mapping {
			kind, err := driver.ParseMapKind(name)
			hops := append([]float64{q.ParentAvgHops, q.OverallAvgHops}, q.SiblingAvgHops...)
			if err != nil || kind.String() != name || len(q.SiblingAvgHops) != n ||
				slices.ContainsFunc(hops, func(h float64) bool { return !(h >= 0 && h <= math.MaxFloat64) }) {
				return false
			}
		}
		return len(v.Weights) == n && len(v.Rects) == n && resultFits(v.Cost, n) &&
			(n == 0 || alloc.Validate(v.Rects, v.Px, v.Py) == nil) &&
			!slices.ContainsFunc(v.Weights, func(w float64) bool { return math.IsNaN(w) || math.IsInf(w, 0) })
	case *driver.Comparison:
		return resultFits(v.Default, n) && resultFits(v.Concurrent, n)
	case *driver.Result:
		return resultFits(*v, n)
	}
	return false
}

// resultFits reports whether r has at most n siblings (a hit names them
// from the request's children by index), no negative time, wait or hop
// average, and siblings with positive ranks and no negative time.
func resultFits(r driver.Result, n int) bool {
	if len(r.Siblings) > n || !(r.IterTime >= 0 && r.IOTime >= 0 && r.WaitAvg >= 0 && r.WaitMax >= 0 && r.HopsAvg >= 0) {
		return false
	}
	return !slices.ContainsFunc(r.Siblings, func(s driver.DomainMetrics) bool {
		return s.Ranks <= 0 || !(s.StepTime >= 0 && s.PhaseTime >= 0)
	})
}

// parseGeometry parses one "(nx,ny,ratio,offx,offy" ... ")" group from
// the front of s into a child of parent, or into a root when parent is
// nil, and returns the domain (nil if s does not start with a
// well-formed group) and what follows the group.
func parseGeometry(s string, parent *nest.Domain) (*nest.Domain, string) {
	if !strings.HasPrefix(s, "(") {
		return nil, s
	}
	end := strings.IndexAny(s[1:], "()") + 1
	if end == 0 {
		return nil, s
	}
	var v [5]int
	fields := strings.Split(s[1:end], ",")
	if len(fields) != len(v) {
		return nil, s
	}
	for i, f := range fields {
		var err error
		if v[i], err = strconv.Atoi(f); err != nil {
			return nil, s
		}
	}
	var d *nest.Domain
	if parent == nil {
		if v[2] != 1 || v[3] != 0 || v[4] != 0 {
			return nil, s
		}
		d = nest.Root("", v[0], v[1])
	} else {
		d = parent.AddChild("", v[0], v[1], v[2], v[3], v[4])
	}
	for s = s[end:]; strings.HasPrefix(s, "("); {
		var c *nest.Domain
		if c, s = parseGeometry(s, d); c == nil {
			return nil, s
		}
	}
	if !strings.HasPrefix(s, ")") {
		return nil, s
	}
	return d, s[1:]
}
