package main

import (
	"testing"

	"nestwrf"
)

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

func TestPickers(t *testing.T) {
	for _, name := range []string{"oblivious", "txyz", "partition", "multilevel"} {
		if _, err := pickMap(name); err != nil {
			t.Errorf("map %s: %v", name, err)
		}
	}
	if _, err := pickMap("x"); err == nil {
		t.Error("unknown map should fail")
	}
	for _, name := range []string{"predicted", "points", "equal"} {
		if _, err := pickAlloc(name); err != nil {
			t.Errorf("alloc %s: %v", name, err)
		}
	}
	if _, err := pickAlloc("x"); err == nil {
		t.Error("unknown alloc should fail")
	}
}

func TestPickAllocAliases(t *testing.T) {
	cases := map[string]nestwrf.AllocPolicy{
		"predicted":        nestwrf.AllocPredicted,
		"points":           nestwrf.AllocNaivePoints,
		"naive":            nestwrf.AllocNaivePoints,
		"naive-points":     nestwrf.AllocNaivePoints,
		"equal":            nestwrf.AllocEqual,
		"strips-predicted": nestwrf.AllocStripsPredicted,
		"strips":           nestwrf.AllocStripsPredicted,
	}
	for in, want := range cases {
		got, err := pickAlloc(in)
		if err != nil || got != want {
			t.Errorf("pickAlloc(%q) = %v, %v; want %v", in, got, err, want)
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
