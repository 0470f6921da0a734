package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"nestwrf"
)

// TestMain makes the test binary nestsim itself when
// NESTSIM_RUN_MAIN=1, so a test can run the command end to end in a
// child process.
func TestMain(m *testing.M) {
	if os.Getenv("NESTSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestHeaderRatio runs nestsim and checks the ratio its header prints
// is the nests': a preset keeps its own whatever -ratio says, and
// -ratio sets the ratio of -nest domains.
func TestHeaderRatio(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-preset", "table2", "-ratio", "5"}, "4 nests, ratio 3\n"},
		{[]string{"-nest", "100x100@5,5", "-ratio", "5"}, "1 nests, ratio 5\n"},
	} {
		cmd := exec.Command(os.Args[0], append(c.args, "-ranks", "64", "-plan")...)
		cmd.Env = append(os.Environ(), "NESTSIM_RUN_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("nestsim %v: %v", c.args, err)
		}
		if header, _, _ := strings.Cut(string(out), "\n"); !strings.HasSuffix(header+"\n", c.want) {
			t.Errorf("nestsim %v header %q, want it to end in %q", c.args, header, c.want)
		}
	}
}

func TestBuildConfigCustom(t *testing.T) {
	cfg, err := buildConfig("", "286x307", 3, nestFlags{"394x418@5,5", "313x337@140,150"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NX != 286 || cfg.NY != 307 || len(cfg.Children) != 2 {
		t.Errorf("config = %+v", cfg)
	}
	if cfg.Children[0].NX != 394 || cfg.Children[0].OffX != 5 {
		t.Errorf("nest 1 = %+v", cfg.Children[0])
	}
}

func TestBuildConfigErrors(t *testing.T) {
	if _, err := buildConfig("", "banana", 3, nestFlags{"10x10@0,0"}); err == nil {
		t.Error("bad parent spec should fail")
	}
	if _, err := buildConfig("", "100x100", 3, nestFlags{"oops"}); err == nil {
		t.Error("bad nest spec should fail")
	}
	if _, err := buildConfig("", "100x100", 3, nil); err == nil {
		t.Error("no nests should fail")
	}
	if _, err := buildConfig("", "100x100", 3, nestFlags{"900x900@0,0"}); err == nil {
		t.Error("out-of-bounds nest should fail")
	}
}

func TestPresets(t *testing.T) {
	for _, name := range []string{"table2", "fig10", "fig15", "fig2"} {
		cfg, err := presetConfig(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := presetConfig("nope"); err == nil {
		t.Error("unknown preset should fail")
	}
}

// TestPickers covers every -map spelling nestsim accepts, and the
// rejection of unknown -map and -alloc names, through the facade
// parsers it calls.
func TestPickers(t *testing.T) {
	maps := map[string]nestwrf.MapKind{
		"oblivious":  nestwrf.MapOblivious,
		"txyz":       nestwrf.MapTXYZ,
		"partition":  nestwrf.MapPartition,
		"multilevel": nestwrf.MapMultiLevel,
	}
	for in, want := range maps {
		if got, err := nestwrf.ParseMapKind(in); err != nil || got != want {
			t.Errorf("ParseMapKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := nestwrf.ParseMapKind("x"); err == nil {
		t.Error("unknown map should fail")
	}
	if _, err := nestwrf.ParseAllocPolicy("x"); err == nil {
		t.Error("unknown alloc should fail")
	}
}

// TestPickAllocAliases covers every -alloc spelling nestsim accepts.
func TestPickAllocAliases(t *testing.T) {
	allocs := map[string]nestwrf.AllocPolicy{
		"predicted":        nestwrf.AllocPredicted,
		"points":           nestwrf.AllocNaivePoints,
		"naive":            nestwrf.AllocNaivePoints,
		"naive-points":     nestwrf.AllocNaivePoints,
		"equal":            nestwrf.AllocEqual,
		"strips-predicted": nestwrf.AllocStripsPredicted,
		"strips":           nestwrf.AllocStripsPredicted,
	}
	for in, want := range allocs {
		if got, err := nestwrf.ParseAllocPolicy(in); err != nil || got != want {
			t.Errorf("ParseAllocPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestNestFlags(t *testing.T) {
	var n nestFlags
	if err := n.Set("1x2@3,4"); err != nil {
		t.Fatal(err)
	}
	if err := n.Set("5x6@7,8"); err != nil {
		t.Fatal(err)
	}
	if n.String() != "1x2@3,4,5x6@7,8" {
		t.Errorf("String = %q", n.String())
	}
}
