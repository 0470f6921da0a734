//go:build !race

package main

import "testing"

func skipTracedSmoke(t *testing.T) bool { return testing.Short() }
