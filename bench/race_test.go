//go:build race

package main

import "testing"

// skipTracedSmoke: under the race detector the traced pass and its
// probes (thousands of goroutines, a few million calls) take minutes,
// so the smoke keeps to the untraced workloads there.
func skipTracedSmoke(t *testing.T) bool {
	t.Log("race build: traced pass and probes skipped")
	return true
}
