// Package machine describes the IBM Blue Gene/L and Blue Gene/P
// systems the paper evaluates on (Section 4.2): core organization,
// execution modes, network parameters, I/O parameters, and the torus
// shapes and virtual process grids used at each core count.
//
// The model treats each core as a torus endpoint (virtual-node mode
// with the intra-node T dimension folded into Z); absolute constants
// are calibrated in internal/model so that the simulated WRF matches
// the paper's anchor numbers in shape.
package machine

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"nestwrf/internal/iosim"
	"nestwrf/internal/netsim"
	"nestwrf/internal/torus"
	"nestwrf/internal/vtopo"
)

// Mode is a Blue Gene application execution mode (Section 4.2).
type Mode int

// Execution modes. BG/L supports CO and VN; BG/P supports SMP, Dual
// and VN. All experiments of the paper run in VN mode.
const (
	CO   Mode = iota // coprocessor: 1 compute core per node (BG/L)
	VN               // virtual node: every core runs an MPI rank
	SMP              // 1 process per node, up to 4 threads (BG/P)
	Dual             // 2 processes per node, 2 threads each (BG/P)
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case CO:
		return "CO"
	case VN:
		return "VN"
	case SMP:
		return "SMP"
	case Dual:
		return "Dual"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Machine describes one system.
type Machine struct {
	Name         string
	ClockHz      float64
	CoresPerNode int
	Modes        []Mode

	// PointCost is the effective wall time one core spends per grid
	// point per sub-step (dynamics + physics across all vertical
	// levels). Calibrated against the paper's per-iteration times.
	PointCost float64

	// StepOverhead is the fixed per-sub-step runtime cost (time-step
	// bookkeeping, implicit barriers) that bounds strong scaling.
	StepOverhead float64

	// ExchangesPerStep is the number of halo messages each rank sends
	// per neighbour per sub-step. The paper reports 144 total exchanges
	// with the four neighbours per WRF step, i.e. 36 per direction.
	ExchangesPerStep int

	// BytesPerPoint is the halo payload per boundary grid point per
	// exchange message (a slice of the vertical column).
	BytesPerPoint float64

	Net netsim.Params
	IO  iosim.Params
}

// ErrBadCores is returned when a core count cannot be arranged.
var ErrBadCores = errors.New("machine: unsupported core count")

// BGL returns the Blue Gene/L model: 700 MHz PPC440, 2 cores per node,
// 175 MB/s torus links.
func BGL() Machine {
	return Machine{
		Name:             "BlueGene/L",
		ClockHz:          700e6,
		CoresPerNode:     2,
		Modes:            []Mode{CO, VN},
		PointCost:        1.2e-3,
		StepOverhead:     5.0e-3,
		ExchangesPerStep: 36,
		BytesPerPoint:    25e3,
		Net: netsim.Params{
			LatencyPerHop: 9.0e-7,
			Overhead:      8.0e-4,
			Bandwidth:     175e6,
		},
		IO: iosim.Params{
			BaseLatency:         5e-3,
			PerWriterOverhead:   3.5e-4,
			AggregateBandwidth:  1.0e9,
			PerProcessBandwidth: 4e6,
		},
	}
}

// BGP returns the Blue Gene/P model: 850 MHz PPC450, 4 cores per node,
// 425 MB/s torus links, DMA-driven messaging.
func BGP() Machine {
	return Machine{
		Name:             "BlueGene/P",
		ClockHz:          850e6,
		CoresPerNode:     4,
		Modes:            []Mode{SMP, Dual, VN},
		PointCost:        6.8e-4,
		StepOverhead:     2.5e-3,
		ExchangesPerStep: 36,
		BytesPerPoint:    25e3,
		Net: netsim.Params{
			LatencyPerHop: 5.0e-7,
			Overhead:      4.0e-4,
			Bandwidth:     425e6,
		},
		IO: iosim.Params{
			BaseLatency:         5e-3,
			PerWriterOverhead:   3.5e-4,
			AggregateBandwidth:  2.0e9,
			PerProcessBandwidth: 8e6,
		},
	}
}

// Parse resolves a machine name as requests, ensemble specs and
// command lines spell it: "bgl", "bg/l" or the full "BlueGene/L", and
// the same three for Blue Gene/P, in any case.
func Parse(name string) (Machine, error) {
	switch strings.ToLower(name) {
	case "bgl", "bg/l", "bluegene/l":
		return BGL(), nil
	case "bgp", "bg/p", "bluegene/p":
		return BGP(), nil
	}
	return Machine{}, fmt.Errorf("unknown machine %q (accepted: bgl, bgp)", name)
}

// RanksPerNode returns the MPI ranks per node in the given mode.
func (m Machine) RanksPerNode(mode Mode) int {
	switch mode {
	case CO, SMP:
		return 1
	case Dual:
		return 2
	default: // VN
		return m.CoresPerNode
	}
}

// GridFor returns the virtual Px × Py process grid WRF would use for
// the given rank count: the divisor pair closest to square, with
// Px >= Py (matching the paper's Fig. 5(a), where 32 ranks form an
// 8x4 grid).
func GridFor(ranks int) (vtopo.Grid, error) {
	if ranks <= 0 {
		return vtopo.Grid{}, fmt.Errorf("%w: %d", ErrBadCores, ranks)
	}
	best := -1
	for d := 1; d*d <= ranks; d++ {
		if ranks%d == 0 {
			best = d
		}
	}
	py := best
	px := ranks / py
	return vtopo.NewGrid(px, py)
}

// TorusFor returns the torus shape (in cores) used for the given rank
// count, chosen so that the process grid of GridFor folds onto it
// (multi-level mapping feasible): Tx divides Px, Ty divides Py, and
// (Px/Tx)*(Py/Ty) = Tz. Stripe factors of 4 are used for large grids,
// yielding the production shapes 8x8x8 (512 cores) and 8x8x16 (1024
// cores, one BG/L rack).
func TorusFor(ranks int) (torus.Torus, error) {
	g, err := GridFor(ranks)
	if err != nil {
		return torus.Torus{}, err
	}
	stripe := func(dim int) int {
		switch {
		case dim >= 32 && dim%4 == 0:
			return 4
		case dim >= 8 && dim%2 == 0:
			return 2
		default:
			return 1
		}
	}
	a, b := stripe(g.Px), stripe(g.Py)
	return torus.New(g.Px/a, g.Py/b, a*b)
}

// NodesFor returns the number of physical nodes hosting the given
// number of ranks in the given mode.
func (m Machine) NodesFor(ranks int, mode Mode) int {
	per := m.RanksPerNode(mode)
	return int(math.Ceil(float64(ranks) / float64(per)))
}
