// Package iosim models the parallel-I/O costs of high-frequency
// weather-forecast output (paper Sections 1 and 4.5). Two modes are
// provided, matching the paper's experimental setup:
//
//   - Collective (PnetCDF on BG/P): all ranks of a domain's
//     communicator participate in writing one file. The coordination
//     cost grows with the number of writers, so per-iteration I/O time
//     *increases* with scale — the scalability problem of Fig. 13(b).
//     Running siblings on processor subsets shrinks each file's writer
//     group and restores I/O scalability.
//   - Split (WRF's split I/O on BG/L): every process writes its own
//     piece, aggregate bandwidth capped by the filesystem.
package iosim

import (
	"errors"
	"fmt"
	"strings"
)

// OutputBytesPerPoint is the forecast output volume per horizontal grid
// point (3D fields over all vertical levels).
const OutputBytesPerPoint = 4500.0

// Params are the I/O cost-model parameters. Times in seconds, sizes in
// bytes.
type Params struct {
	// BaseLatency is the fixed cost of opening/creating one output file.
	BaseLatency float64
	// PerWriterOverhead is the collective-coordination cost added per
	// participating rank of a PnetCDF-style collective write.
	PerWriterOverhead float64
	// AggregateBandwidth is the filesystem's total write bandwidth.
	AggregateBandwidth float64
	// PerProcessBandwidth is one process's attainable write bandwidth in
	// split-I/O mode.
	PerProcessBandwidth float64
}

// ErrBadParams is returned for invalid parameters.
var ErrBadParams = errors.New("iosim: parameters must be positive")

// Validate checks p.
func (p Params) Validate() error {
	if p.BaseLatency < 0 || p.PerWriterOverhead < 0 ||
		p.AggregateBandwidth <= 0 || p.PerProcessBandwidth <= 0 {
		return fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	return nil
}

// CollectiveWriteTime models a PnetCDF collective write of the given
// total size by the given number of writers.
func (p Params) CollectiveWriteTime(writers int, bytes float64) float64 {
	if writers <= 0 || bytes <= 0 {
		return 0
	}
	return p.BaseLatency + p.PerWriterOverhead*float64(writers) + bytes/p.AggregateBandwidth
}

// SplitWriteTime models WRF's split I/O: each of the writers streams
// its share concurrently, bounded by the filesystem's aggregate
// bandwidth.
func (p Params) SplitWriteTime(writers int, bytes float64) float64 {
	if writers <= 0 || bytes <= 0 {
		return 0
	}
	bw := float64(writers) * p.PerProcessBandwidth
	if bw > p.AggregateBandwidth {
		bw = p.AggregateBandwidth
	}
	return p.BaseLatency + bytes/bw
}

// Mode selects the I/O model.
type Mode int

// I/O modes.
const (
	Collective Mode = iota // PnetCDF-style collective writes (BG/P)
	Split                  // one file per process (BG/L)
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Collective:
		return "pnetcdf"
	case Split:
		return "split"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode is the inverse of Mode.String, for CLI flags, JSON fields
// and report configs. It accepts the canonical names plus common
// aliases, case-insensitively ("PnetCDF" and "pnetcdf" are the same
// mode), so callers must not pre-lower their input.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "pnetcdf", "collective":
		return Collective, nil
	case "split":
		return Split, nil
	}
	return 0, fmt.Errorf("iosim: unknown I/O mode %q (accepted: pnetcdf, collective, split)", s)
}

// WriteTime dispatches on the mode.
func (p Params) WriteTime(m Mode, writers int, bytes float64) float64 {
	if m == Split {
		return p.SplitWriteTime(writers, bytes)
	}
	return p.CollectiveWriteTime(writers, bytes)
}
