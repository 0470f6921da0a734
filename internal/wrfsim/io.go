package wrfsim

import (
	"sort"
	"sync"

	"nestwrf/internal/mpi"
	"nestwrf/internal/nest"
	"nestwrf/internal/output"
	"nestwrf/internal/solver"
	"nestwrf/internal/vtopo"
)

// outputBytesPerPoint is the forecast volume per horizontal grid point
// (all fields and levels), matching the driver's I/O model.
const outputBytesPerPoint = 4500.0

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
func writeOutputs(p *mpi.Proc, world *mpi.Comm, grid vtopo.Grid, parent *solver.Tile,
	nests []*nestCtx, cfg *nest.Domain, opt Options, step int, out *runOutput) error {
	// Parent file: all ranks write.
	st, err := solver.Gather(world, parent)
	if err != nil {
		return err
	}
	p.Compute(opt.IO.WriteTime(opt.IOMode, world.Size(), float64(cfg.Points())*outputBytesPerPoint))
	if st != nil {
		out.record(output.Snapshot{Domain: cfg.Name, Step: step, State: st})
	}

	// Sibling files: each nest's communicator writes its own file. In
	// the concurrent strategy the writer groups are disjoint partitions,
	// so the writes overlap in virtual time; in the sequential strategy
	// every rank participates in every file.
	for _, nc := range nests {
		if nc.tile == nil {
			continue
		}
		sub, err := solver.Gather(nc.comm, nc.tile)
		if err != nil {
			return err
		}
		p.Compute(opt.IO.WriteTime(opt.IOMode, nc.comm.Size(), float64(nc.d.Points())*outputBytesPerPoint))
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
