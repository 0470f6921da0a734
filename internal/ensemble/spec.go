// Package ensemble grows the paper's single-scenario campaign and
// steering loops into a runtime-scale ensemble engine (the ProWis
// direction, and the paper's Section 6 future work of steering
// multiple nested simulations at once): it generates thousands of
// perturbed scenarios — storm-track jitter over typhoon-season
// storylines, mgrid-style coarse→regional→local nest hierarchies,
// machine and allocation-policy sweeps — and executes them over a
// bounded worker pool that shares one plan cache, streaming members
// into online aggregate statistics instead of retaining outputs.
//
// Everything a member is, is a deterministic function of (Spec, member
// ID): a per-member PRNG is seeded from a splitmix64 hash of the
// campaign seed and the ID, so members can be re-generated in any
// order — a killed campaign resumes from its checkpoint and reproduces
// the uninterrupted run's aggregates bit for bit.
package ensemble

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"nestwrf/internal/campaign"
	"nestwrf/internal/driver"
	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
)

// Generator names.
const (
	// GenSeason jitters the typhoon-season storyline: every member is
	// a 5-phase campaign whose depression tracks are shifted and
	// scaled.
	GenSeason = "season-jitter"
	// GenHierarchy samples mgrid-style 3-level coarse→regional→local
	// nest hierarchies: 1-3 regional nests (refinement 3 or 5), each
	// optionally carrying a finer local nest.
	GenHierarchy = "hierarchy"
	// GenSweep sweeps machines, rank counts and allocation policies
	// over a jittered peak-season configuration.
	GenSweep = "sweep"
	// GenMixed interleaves the three families round-robin by member ID.
	GenMixed = "mixed"
)

// Generators lists the accepted generator names.
func Generators() []string {
	return []string{GenSeason, GenHierarchy, GenSweep, GenMixed}
}

// Spec identifies a campaign: every field participates in checkpoint
// matching, and member scenarios are pure functions of (Spec, ID).
type Spec struct {
	// Generator is one of Generators(). Default: mixed.
	Generator string `json:"generator"`
	// Members is the campaign size.
	Members int `json:"members"`
	// Seed drives all scenario sampling.
	Seed int64 `json:"seed"`
	// Machine is the base machine, "bgl" or "bgp" (the sweep generator
	// samples its own). Default: bgl.
	Machine string `json:"machine"`
	// Ranks is the base processor count (the sweep generator samples
	// its own). Default: 1024.
	Ranks int `json:"ranks"`
	// StepsPerPhase is the season storyline phase length. Default: 100.
	StepsPerPhase int `json:"steps_per_phase"`
}

// Errors.
var (
	ErrBadSpec = errors.New("ensemble: bad spec")
)

// WithDefaults returns the spec with zero fields defaulted.
func (s Spec) WithDefaults() Spec {
	if s.Generator == "" {
		s.Generator = GenMixed
	}
	if s.Machine == "" {
		s.Machine = "bgl"
	}
	if s.Ranks == 0 {
		s.Ranks = 1024
	}
	if s.StepsPerPhase == 0 {
		s.StepsPerPhase = 100
	}
	return s
}

// Validate checks the (defaulted) spec.
func (s Spec) Validate() error {
	if s.Members <= 0 {
		return fmt.Errorf("%w: members=%d", ErrBadSpec, s.Members)
	}
	switch s.Generator {
	case GenSeason, GenHierarchy, GenSweep, GenMixed:
	default:
		return fmt.Errorf("%w: unknown generator %q (accepted: %s)",
			ErrBadSpec, s.Generator, strings.Join(Generators(), ", "))
	}
	if _, err := s.baseMachine(); err != nil {
		return err
	}
	if s.Ranks <= 0 {
		return fmt.Errorf("%w: ranks=%d", ErrBadSpec, s.Ranks)
	}
	if s.StepsPerPhase <= 0 {
		return fmt.Errorf("%w: steps_per_phase=%d", ErrBadSpec, s.StepsPerPhase)
	}
	return nil
}

func (s Spec) baseMachine() (machine.Machine, error) {
	m, err := machine.Parse(s.Machine)
	if err != nil {
		return m, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return m, nil
}

// kindFor returns the realized generator family of one member.
func (s Spec) kindFor(id int) string {
	if s.Generator != GenMixed {
		return s.Generator
	}
	return []string{GenSeason, GenHierarchy, GenSweep}[id%3]
}

// Member is one realized scenario: either a multi-phase storyline
// (Phases set) or a single configuration (Config set), plus the
// options to run it under.
type Member struct {
	ID   int
	Kind string
	// Phases is the storyline for season members.
	Phases []campaign.Phase
	// Config is the single configuration for hierarchy/sweep members.
	Config *nest.Domain
	// Opt carries machine, ranks and allocation policy. Strategy is
	// chosen by the runner (members compare sequential vs concurrent).
	Opt driver.Options
}

// Member realizes scenario id. It is deterministic: the same (Spec,
// id) always yields the same scenario, independent of the order
// members are generated in.
func (s Spec) Member(id int) (Member, error) {
	if id < 0 || id >= s.Members {
		return Member{}, fmt.Errorf("%w: member %d of %d", ErrBadSpec, id, s.Members)
	}
	base, err := s.baseMachine()
	if err != nil {
		return Member{}, err
	}
	r := memberRNG(s.Seed, id)
	m := Member{
		ID:   id,
		Kind: s.kindFor(id),
		Opt: driver.Options{
			Machine: base,
			Ranks:   s.Ranks,
			MapKind: driver.MapSequential,
			Alloc:   driver.AllocPredicted,
		},
	}
	switch m.Kind {
	case GenSeason:
		m.Phases = seasonJitter(r, s.StepsPerPhase)
		for _, ph := range m.Phases {
			if err := ph.Config.Validate(); err != nil {
				return Member{}, fmt.Errorf("ensemble: member %d: %w", id, err)
			}
		}
	case GenHierarchy:
		m.Config = hierarchyConfig(r)
	case GenSweep:
		m.Opt.Machine = []machine.Machine{machine.BGL(), machine.BGP()}[r.Intn(2)]
		m.Opt.Ranks = []int{256, 512, 1024}[r.Intn(3)]
		m.Opt.Alloc = []driver.AllocPolicy{
			driver.AllocPredicted, driver.AllocEqual, driver.AllocNaivePoints,
		}[r.Intn(3)]
		m.Config = sweepConfig(r)
	}
	if m.Config != nil {
		if err := m.Config.Validate(); err != nil {
			return Member{}, fmt.Errorf("ensemble: member %d: %w", id, err)
		}
	}
	return m, nil
}

// memberRNG derives a per-member PRNG from the campaign seed and the
// member ID via a splitmix64 finalizer, so member scenarios are
// independent of generation order.
func memberRNG(seed int64, id int) *rand.Rand {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// addClamped attaches a child of roughly nx x ny at refinement ratio,
// clamping the size into the parent's capacity and snapping the offset
// into the feasible range, so every sampled scenario validates.
func addClamped(parent *nest.Domain, name string, nx, ny, ratio, offX, offY int) *nest.Domain {
	if nx < ratio {
		nx = ratio
	}
	if maxNX := parent.NX * ratio; nx > maxNX {
		nx = maxNX
	}
	if ny < ratio {
		ny = ratio
	}
	if maxNY := parent.NY * ratio; ny > maxNY {
		ny = maxNY
	}
	fx := (nx + ratio - 1) / ratio
	fy := (ny + ratio - 1) / ratio
	offX = clamp(offX, 0, parent.NX-fx)
	offY = clamp(offY, 0, parent.NY-fy)
	return parent.AddChild(name, nx, ny, ratio, offX, offY)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// snap rounds v down to a multiple of q. Sampled sizes and offsets are
// snapped so distinct members still share plan-cache geometries: the
// jitter space is deliberately quantized.
func snap(v, q int) int {
	if v < 0 {
		return -snap(-v, q)
	}
	return v - v%q
}

// seasonJitter perturbs the typhoon-season storyline: all depressions
// shift along a common track offset (the storm track moved) and scale
// together (the season ran stronger or weaker). Offsets snap to 12
// grid points and scales to 10%, bounding the jitter space so the plan
// cache amortizes across members.
func seasonJitter(r *rand.Rand, steps int) []campaign.Phase {
	tdx := 12 * (r.Intn(3) - 1)
	tdy := 12 * (r.Intn(3) - 1)
	scale := []float64{0.9, 1.0, 1.1}[r.Intn(3)]
	base := campaign.Season(steps)
	out := make([]campaign.Phase, 0, len(base))
	for _, ph := range base {
		root := nest.Root(ph.Config.Name, ph.Config.NX, ph.Config.NY)
		for _, c := range ph.Config.Children {
			nx := snap(int(float64(c.NX)*scale), 10)
			ny := snap(int(float64(c.NY)*scale), 10)
			addClamped(root, c.Name, nx, ny, c.Ratio, c.OffX+tdx, c.OffY+tdy)
		}
		out = append(out, campaign.Phase{Steps: ph.Steps, Config: root})
	}
	return out
}

// hierarchyConfig samples an mgrid-style 3-level hierarchy on the
// Pacific parent: 1-3 regional nests at refinement 3 or 5, each with a
// 50% chance of carrying a finer local nest (refinement 3) — the
// coarse→regional→local shape of multi-resolution weather setups.
func hierarchyConfig(r *rand.Rand) *nest.Domain {
	root := nest.Root("coarse", 286, 307)
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		ratio := []int{3, 5}[r.Intn(2)]
		nx := 150 + 30*r.Intn(4)
		ny := 150 + 30*r.Intn(4)
		fx := (nx + ratio - 1) / ratio
		fy := (ny + ratio - 1) / ratio
		offX := snap((root.NX-fx)*r.Intn(3)/2, 4)
		offY := snap((root.NY-fy)*r.Intn(3)/2, 4)
		reg := addClamped(root, fmt.Sprintf("regional%d", i+1), nx, ny, ratio, offX, offY)
		if r.Intn(2) == 0 {
			lnx := snap(reg.NX/2+10*r.Intn(3), 10)
			lny := snap(reg.NY/2+10*r.Intn(3), 10)
			lfx := (lnx + 2) / 3
			lfy := (lny + 2) / 3
			loffX := snap((reg.NX-lfx)*r.Intn(3)/2, 4)
			loffY := snap((reg.NY-lfy)*r.Intn(3)/2, 4)
			addClamped(reg, fmt.Sprintf("local%d", i+1), lnx, lny, 3, loffX, loffY)
		}
	}
	return root
}

// sweepConfig jitters the peak-season 3-depression configuration the
// same way seasonJitter does; the sweep dimension is the machine,
// rank count and allocation policy sampled in Member.
func sweepConfig(r *rand.Rand) *nest.Domain {
	tdx := 12 * (r.Intn(3) - 1)
	tdy := 12 * (r.Intn(3) - 1)
	scale := []float64{0.9, 1.0, 1.1}[r.Intn(3)]
	peak := campaign.Season(1)[2].Config
	root := nest.Root("peak", peak.NX, peak.NY)
	for _, c := range peak.Children {
		nx := snap(int(float64(c.NX)*scale), 10)
		ny := snap(int(float64(c.NY)*scale), 10)
		addClamped(root, c.Name, nx, ny, c.Ratio, c.OffX+tdx, c.OffY+tdy)
	}
	return root
}
