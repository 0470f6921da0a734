//go:build race

package planserve

// raceEnabled reports that this build runs under the race detector,
// whose instrumentation allocates and distorts AllocsPerRun counts.
const raceEnabled = true
