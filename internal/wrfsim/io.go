package wrfsim

import (
	"strings"

	"nestwrf/internal/iosim"
	"nestwrf/internal/machine"
	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/output"
	"nestwrf/internal/solver"
)

// ioModel is the write-cost model of forecast output: BG/P's
// PnetCDF-like collective write profile.
var ioModel = machine.BGP().IO

// writeOutputs performs one forecast-output event. Each domain k (0 the
// parent, 1+i nest i) is gathered to its communicator root, into the
// state that root keeps for the whole run (*pstate for the parent,
// nc.state for a nest); the modeled write cost is charged to every
// participating rank's clock (collective writes block all writers);
// and the root fills the domain's slot of records, the event's records
// in name order. In the concurrent strategy the nests' writer groups
// are disjoint partitions, so their writes overlap in virtual time; in
// the sequential strategy every rank writes every file.
func writeOutputs(p *mpi.Proc, world *mpi.Comm, parent *solver.Tile, pstate **solver.State,
	nests []nestCtx, cfg *nest.Domain, step int, records []output.Record) error {
	for k := 0; k <= len(nests); k++ {
		c, t, st, d := world, parent, pstate, cfg
		if k > 0 {
			nc := &nests[k-1]
			c, t, st, d = nc.comm, nc.tile, &nc.state, nc.d
		}
		if t == nil {
			continue
		}
		var err error
		if *st, err = solver.Gather(c, t, *st); err != nil {
			return err
		}
		p.Compute(ioModel.CollectiveWriteTime(c.Size(), float64(d.Points())*iosim.OutputBytesPerPoint))
		if *st == nil {
			continue
		}
		if records[slotOf(cfg, k)], err = output.RecordOf(output.Snapshot{Domain: d.Name, Step: step, State: *st}); err != nil {
			return err
		}
	}
	return nil
}

// slotOf is domain k's offset among an output event's records (k = 0
// the parent, 1+i child i): its rank in name order, ties broken by k.
func slotOf(cfg *nest.Domain, k int) int {
	name := func(j int) string {
		if j == 0 {
			return cfg.Name
		}
		return cfg.Children[j-1].Name
	}
	slot := 0
	for j := 0; j <= len(cfg.Children); j++ {
		if c := strings.Compare(name(j), name(k)); c < 0 || c == 0 && j < k {
			slot++
		}
	}
	return slot
}
