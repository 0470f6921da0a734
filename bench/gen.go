package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"nestwrf/internal/driver"
	"nestwrf/internal/ensemble"
	"nestwrf/internal/machine"
	"nestwrf/internal/nest"
	"nestwrf/internal/planserve"
)

// The generator turns a seed into the inputs the program sees: request
// bodies for the plan server, a stream of distinct plan keys, and an
// ensemble spec. The same seed gives byte-identical inputs; the program
// never sees the seed itself (except ensemble.Spec.Seed, which is an
// input of that subsystem).

// typhoonRequest builds the three-level typhoon shape of the repo's
// cold-plan benchmark (two nests on the Pacific parent, the first
// carrying a finer inner nest) from the given nest sizes.
func typhoonRequest(mach string, ranks int, mapKind string, t1x, t1y, ix, t2x, t2y int) planserve.PlanRequest {
	return planserve.PlanRequest{
		Machine: mach, Ranks: ranks,
		Strategy: "concurrent", Alloc: "predicted", Mapping: mapKind,
		Domain: planserve.DomainSpec{
			Name: "pacific", NX: 286, NY: 307,
			Children: []planserve.DomainSpec{
				{Name: "t1", NX: t1x, NY: t1y, Ratio: 3, OffX: 5, OffY: 5,
					Children: []planserve.DomainSpec{
						{Name: "t1i", NX: ix, NY: 140, Ratio: 3, OffX: 20, OffY: 20},
					}},
				{Name: "t2", NX: t2x, NY: t2y, Ratio: 3, OffX: 140, OffY: 150},
			},
		},
	}
}

// geometryKey is the part of a request that decides its canonical
// plan-cache key; the generator dedups on it.
func geometryKey(r planserve.PlanRequest) string {
	b, _ := json.Marshal(struct {
		M, Map string
		R      int
		D      planserve.DomainSpec
	}{r.Machine, r.Mapping, r.Ranks, r.Domain})
	return string(b)
}

var hotMachines = []string{"bgl", "bgp"}

// hotRequests draws n distinct typhoon geometries at 1024 ranks: the
// working set of plan-hot, far below the server's 1024-entry cache.
func hotRequests(seed int64, n int) []planserve.PlanRequest {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	out := make([]planserve.PlanRequest, 0, n)
	for len(out) < n {
		r := typhoonRequest(hotMachines[rng.Intn(2)], 1024, "multilevel",
			340+rng.Intn(56), 400+rng.Intn(41), 150+rng.Intn(21),
			270+rng.Intn(41), 310+rng.Intn(31))
		if k := geometryKey(r); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// churnCombo is one (ranks, machine, mapping) mix of plan-churn.
type churnCombo struct {
	ranks         int
	mach, mapKind string
}

var churnCombos = func() (c []churnCombo) {
	for _, r := range []int{256, 1024, 4096} {
		for _, m := range hotMachines {
			for _, k := range []string{"partition", "multilevel"} {
				c = append(c, churnCombo{r, m, k})
			}
		}
	}
	return c
}()

// splitmix64 is the per-index hash behind the stream's free choices;
// cheaper than seeding a rand.Source per request.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// churnStream yields the distinct-key request stream of plan-churn.
// Distinctness is by construction, not by luck: index i maps
// injectively (for i < churnPeriod) onto the sizes of nests t1 and t2,
// which are part of the canonical key, so no two indices can share a
// cache entry whatever the other fields are. Every block of
// churnRun*len(churnCombos) consecutive indices holds each combination
// churnRun times, so any long run of the stream has the same cost mix
// whatever the seed.
type churnStream struct {
	seed       uint64
	offA, offB int
}

const (
	churnA      = 56 // t1 NX values
	churnB      = 41 // t1 NY values
	churnC      = 41 // t2 NX values
	churnPeriod = churnA * churnB * churnC
	churnRun    = 8 // consecutive indices per combination
)

func newChurnStream(seed int64) churnStream {
	s := splitmix64(uint64(seed))
	return churnStream{seed: s, offA: int(s % churnA), offB: int((s >> 20) % churnB)}
}

func (s churnStream) request(i int) planserve.PlanRequest {
	if i < 0 || i >= churnPeriod {
		panic(fmt.Sprintf("bench: churn index %d outside the distinct range [0,%d)", i, churnPeriod))
	}
	a, b, c := i%churnA, (i/churnA)%churnB, i/(churnA*churnB)
	// Runs of churnRun consecutive indices share one combination, so
	// the clients of a closed loop (who take consecutive indices) plan
	// the same size of problem at the same time: a request's latency
	// then depends on its own class, not on what its neighbour drew.
	n := len(churnCombos)
	run := i / churnRun
	rot := splitmix64(s.seed + uint64(run/n)) // rotation of the block's combinations
	combo := churnCombos[(run+int(rot%uint64(n)))%n]
	free := splitmix64(s.seed ^ uint64(i)<<1) // sizes that distinctness does not rest on
	return typhoonRequest(combo.mach, combo.ranks, combo.mapKind,
		340+(a+s.offA)%churnA, 400+(b+s.offB)%churnB, 150+int(free%21),
		270+c, 310+int((free>>16)%31))
}

// toJob resolves a generated request the way the server does, for the
// direct driver calls of the correctness checks and layer probes. It
// covers exactly the fields the generator sets.
func toJob(r planserve.PlanRequest) (*nest.Domain, driver.Options, error) {
	opt := driver.Options{Ranks: r.Ranks}
	switch r.Machine {
	case "bgl":
		opt.Machine = machine.BGL()
	case "bgp":
		opt.Machine = machine.BGP()
	default:
		return nil, opt, fmt.Errorf("bench: machine %q", r.Machine)
	}
	var err error
	if opt.Strategy, err = driver.ParseStrategy(r.Strategy); err != nil {
		return nil, opt, err
	}
	if opt.Alloc, err = driver.ParseAllocPolicy(r.Alloc); err != nil {
		return nil, opt, err
	}
	if opt.MapKind, err = driver.ParseMapKind(r.Mapping); err != nil {
		return nil, opt, err
	}
	root := nest.Root(r.Domain.Name, r.Domain.NX, r.Domain.NY)
	var add func(parent *nest.Domain, sp planserve.DomainSpec)
	add = func(parent *nest.Domain, sp planserve.DomainSpec) {
		c := parent.AddChild(sp.Name, sp.NX, sp.NY, sp.Ratio, sp.OffX, sp.OffY)
		for _, cc := range sp.Children {
			add(c, cc)
		}
	}
	for _, c := range r.Domain.Children {
		add(root, c)
	}
	return root, opt, root.Validate()
}

// ensembleSpec is the campaign of the ensemble workloads.
func ensembleSpec(seed int64, members int) ensemble.Spec {
	return ensemble.Spec{Generator: ensemble.GenMixed, Members: members, Seed: seed, StepsPerPhase: 10}.WithDefaults()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// inputHash fingerprints everything the generator hands a workload at
// the given sizes; the result file records it, and the determinism
// test pins it.
func inputHash(seed int64, hot, churn, members int) (string, error) {
	h := sha256.New()
	for _, r := range hotRequests(seed, hot) {
		h.Write(mustJSON(r))
	}
	cs := newChurnStream(seed)
	for i := 0; i < churn; i++ {
		h.Write(mustJSON(cs.request(i)))
	}
	spec := ensembleSpec(seed, members)
	h.Write(mustJSON(spec))
	for id := 0; id < members; id++ {
		m, err := spec.Member(id)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%d|%s|%d|%d|%s|", m.ID, m.Kind, m.Opt.Ranks, m.Opt.Alloc, m.Opt.Machine.Name)
		if m.Config != nil {
			m.Config.Walk(func(d *nest.Domain) { fmt.Fprintf(h, "%v@%d,%d;", d, d.OffX, d.OffY) })
		}
		for _, ph := range m.Phases {
			fmt.Fprintf(h, "p%d:", ph.Steps)
			ph.Config.Walk(func(d *nest.Domain) { fmt.Fprintf(h, "%v@%d,%d;", d, d.OffX, d.OffY) })
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
