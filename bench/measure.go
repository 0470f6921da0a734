package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart approximates the child-process start: package
// initialisation runs before main, so set-up time counted from here
// includes flag parsing and generator work.
var processStart = time.Now()

// quartiles holds the three quartiles of a sample, computed the way
// Python's statistics.quantiles(values, n=4) does (exclusive method),
// so spreads printed here match the ones the driver computes.
type quartiles struct {
	Q1, Median, Q3 float64
	N              int
}

// spread is the inter-quartile distance as a share of the median.
func (q quartiles) spread() float64 {
	if q.Median == 0 {
		return 0
	}
	return math.Abs(q.Q3-q.Q1) / math.Abs(q.Median)
}

func quartilesOf(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := quartiles{N: len(s)}
	switch len(s) {
	case 0:
		return q
	case 1:
		q.Q1, q.Median, q.Q3 = s[0], s[0], s[0]
		return q
	}
	at := func(i int) float64 {
		j, delta := i*(len(s)+1)/4, i*(len(s)+1)%4
		j = min(max(j, 1), len(s)-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	q.Q1, q.Median, q.Q3 = at(1), at(2), at(3)
	return q
}

func median(xs []float64) float64 { return quartilesOf(xs).Median }

// percentileNs returns the p-quantile (nearest rank) of sorted
// nanosecond latencies.
func percentileNs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
// One process per workload makes this a per-workload number.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			return float64(ru.Maxrss) / 1024 // Linux reports KB
		}
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// sample is what one timed rep cost.
type sample struct {
	ops     int
	wall    float64 // seconds
	cpu     float64 // seconds, user+sys
	mallocs uint64
	bytes   uint64
}

// timeRep runs fn between two readings of the wall clock, the process
// CPU clock and the allocator counters. ReadMemStats stops the world,
// so it is only ever called at rep boundaries, outside the timed
// interval.
func timeRep(fn func() int) sample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	ops := fn()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	return sample{ops: ops, wall: wall, cpu: cpu,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}
}

// hostInfo is the host and build identity recorded beside every
// result, so files from different hosts are never silently compared.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func readHostInfo() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// The driver's checkout is not a git repository and go run stamps
	// no VCS data, so the commit is best effort.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}
