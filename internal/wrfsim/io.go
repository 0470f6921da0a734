package wrfsim

import (
	"sort"
	"sync"

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

// runOutput is one run's Output together with the lock that guards its
// Snapshots, which the communicator roots of different domains
// (distinct goroutines) append to. Each run has its own, so concurrent
// runs never serialise on each other's records.
type runOutput struct {
	*Output
	snapMu sync.Mutex
}

// writeOutputs performs one forecast-output event: every domain's
// fields are gathered to its communicator root with real messages, the
// modeled write cost is charged to every participating rank's clock
// (collective writes block all writers), and the root records the
// snapshot.
func writeOutputs(p *mpi.Proc, world *mpi.Comm, parent *solver.Tile,
	nests []nestCtx, cfg *nest.Domain, step int, out *runOutput) error {
	// Parent file: all ranks write.
	st, err := solver.Gather(world, parent)
	if err != nil {
		return err
	}
	p.Compute(ioModel.CollectiveWriteTime(world.Size(), float64(cfg.Points())*iosim.OutputBytesPerPoint))
	if st != nil {
		out.record(output.Snapshot{Domain: cfg.Name, Step: step, State: st})
	}

	// Sibling files: each nest's communicator writes its own file. In
	// the concurrent strategy the writer groups are disjoint partitions,
	// so the writes overlap in virtual time; in the sequential strategy
	// every rank participates in every file.
	for i := range nests {
		nc := &nests[i]
		if nc.tile == nil {
			continue
		}
		sub, err := solver.Gather(nc.comm, nc.tile)
		if err != nil {
			return err
		}
		p.Compute(ioModel.CollectiveWriteTime(nc.comm.Size(), float64(nc.d.Points())*iosim.OutputBytesPerPoint))
		if sub != nil {
			out.record(output.Snapshot{Domain: nc.d.Name, Step: step, State: sub})
		}
	}
	return nil
}

func (out *runOutput) record(s output.Snapshot) {
	out.snapMu.Lock()
	out.Snapshots = append(out.Snapshots, s)
	out.snapMu.Unlock()
}

// sortSnapshots orders the records deterministically by (step, domain).
func sortSnapshots(snaps []output.Snapshot) {
	sort.Slice(snaps, func(i, j int) bool {
		if snaps[i].Step != snaps[j].Step {
			return snaps[i].Step < snaps[j].Step
		}
		return snaps[i].Domain < snaps[j].Domain
	})
}
