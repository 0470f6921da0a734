package main

import (
	"embed"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
)

// Goldens pin the answers the full-size workloads must give: a wrong
// answer counts as failed ops. Files are bench/golden/<name>.json,
// mapping a seed ("any" for the workloads whose inputs are the paper's
// fixed configurations) to the facts of that run. A seed without an
// entry is checked against the run's own first rep only.

//go:embed golden/*.json
var goldenFS embed.FS

// updateGolden makes checkGolden record instead of compare
// (go run ./bench -update-golden).
var updateGolden bool

type goldenFile map[string]map[string]string

func goldenSeedKey(name string, seed int64) string {
	if name == "ensemble" {
		return strconv.FormatInt(seed, 10)
	}
	return "any"
}

func readGolden(name string) goldenFile {
	g := goldenFile{}
	if b, err := goldenFS.ReadFile("golden/" + name + ".json"); err == nil {
		_ = json.Unmarshal(b, &g) // a torn file reads as empty and fails the check below
	}
	return g
}

// benchDir finds the benchmark's directory from the repository root
// (go run ./bench) or from inside it (go test).
func benchDir() string {
	if st, err := os.Stat(filepath.Join("bench", "golden")); err == nil && st.IsDir() {
		return "bench"
	}
	return "."
}

func checkGolden(t *tally, e *env, name string, got map[string]string) {
	if !e.full {
		return // goldens describe the full sizes only
	}
	key := goldenSeedKey(name, e.seed)
	if updateGolden {
		path := filepath.Join(benchDir(), "golden", name+".json")
		g := goldenFile{}
		if b, err := os.ReadFile(path); err == nil {
			_ = json.Unmarshal(b, &g)
		}
		g[key] = got
		b, _ := json.MarshalIndent(g, "", "  ")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.fail("golden %s: %v", name, err)
		}
		return
	}
	want, ok := readGolden(name)[key]
	if !ok {
		if key == "any" {
			t.fail("golden %s: no entry; run go run ./bench -update-golden", name)
		}
		return
	}
	for k, v := range want {
		if got[k] != v {
			t.fail("golden %s: %s = %s, want %s", name, k, got[k], v)
			return
		}
	}
	if len(got) != len(want) {
		t.fail("golden %s: %d facts, golden has %d", name, len(got), len(want))
	}
}
