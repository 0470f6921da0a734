package driver

import (
	"fmt"

	"nestwrf/internal/telemetry"
)

// TraceIteration reconstructs the virtual-time schedule of one parent
// iteration from a run's Result: the parent step, each sibling's nest
// phase (consecutive on the full machine for the sequential strategy,
// parallel on partition lanes for the concurrent one) and the
// amortized I/O, as a span dump in virtual seconds.
func TraceIteration(res Result, strategy Strategy) *telemetry.Dump {
	log := &telemetry.Dump{Schema: telemetry.DumpSchema, Unit: "virtual seconds"}
	var nestPhase float64
	for _, s := range res.Siblings {
		if strategy == Sequential {
			nestPhase += s.PhaseTime
		} else if s.PhaseTime > nestPhase {
			nestPhase = s.PhaseTime
		}
	}
	parentStep := res.IterTime - nestPhase
	if parentStep < 0 {
		parentStep = 0
	}
	log.Add("parent", "all ranks", 0, parentStep)

	at := parentStep
	for _, s := range res.Siblings {
		switch strategy {
		case Sequential:
			log.Add(s.Name, "all ranks", at, at+s.PhaseTime)
			at += s.PhaseTime
		default:
			lane := fmt.Sprintf("%dx%d@(%d,%d)", s.Rect.W, s.Rect.H, s.Rect.X, s.Rect.Y)
			log.Add(s.Name, lane, parentStep, parentStep+s.PhaseTime)
		}
	}
	if res.IOTime > 0 {
		log.Add("output", "all ranks", res.IterTime, res.IterTime+res.IOTime)
	}
	return log
}
