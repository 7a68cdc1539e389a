package main

// Layer shares from a CPU profile. Each sample is charged to the
// innermost frame that belongs to this repository: a repro/internal/<layer>
// package names the layer, the benchmark's own code is "bench", the root
// package and internal packages outside profBuckets are "other", and a
// sample with no repository frame at all (GC workers, coroutine
// switches, the scheduler) is "runtime".

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

var profBuckets = []string{
	"engine", "core", "cache", "mesi", "noc", "mem", "hwsync", "oracle",
	"litmus", "fuzzgen", "compiler", "apps", "runner", "serve", "obs",
	"runtime", "bench", "other",
}

// profileHz is the sampling rate. The default 100 Hz gives a 2-second
// pass too few samples for shares stable to a few points.
const profileHz = 500

// startProfile starts a CPU profile into a new file in the temporary
// directory and returns its stop function and the file's path. The rate
// is set before pprof.StartCPUProfile, which then prints a harmless
// warning that it cannot change it.
func startProfile() (stop func(), path string, err error) {
	f, err := os.CreateTemp("", "hicbench-*.pprof")
	if err != nil {
		return nil, "", err
	}
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, "", err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, f.Name(), nil
}

// profileShares buckets the profile's samples with the local toolchain's
// `go tool pprof -traces` and returns the prof.<bucket>_frac shares and
// the sample count.
func profileShares(path string) (map[string]float64, int, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return bucketTraces(string(out))
}

// bucketTraces parses `pprof -traces` output: stacks separated by
// dashed lines, each optionally preceded by label lines, whose first
// frame line carries the sample value and whose frames run leaf first.
func bucketTraces(traces string) (map[string]float64, int, error) {
	total := 0.0
	by := map[string]float64{}
	var bucket string
	var value time.Duration
	inStack := false
	flush := func() {
		if inStack {
			if bucket == "" {
				bucket = "runtime"
			}
			by[bucket] += value.Seconds()
			total += value.Seconds()
		}
		inStack, bucket = false, ""
	}
	started := false
	for _, line := range strings.Split(traces, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		if !started {
			continue
		}
		frame := strings.TrimSpace(line)
		if !inStack {
			v, rest, ok := strings.Cut(frame, " ")
			d, err := time.ParseDuration(v)
			if !ok || err != nil {
				continue // a label line
			}
			value, inStack, frame = d, true, strings.TrimSpace(rest)
		}
		if bucket == "" {
			bucket = frameBucket(frame)
		}
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("CPU profile has no samples")
	}
	shares := make(map[string]float64, len(profBuckets))
	for _, b := range profBuckets {
		shares["prof."+b+"_frac"] = by[b] / total
	}
	return shares, int(total*profileHz + 0.5), nil
}

// frameBucket names the bucket of a repository frame, or "" for a frame
// outside the repository.
func frameBucket(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		layer := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(layer, "./"); i >= 0 {
			layer = layer[:i]
		}
		for _, b := range profBuckets {
			if b == layer {
				return b
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/bench."):
		return "bench"
	case strings.HasPrefix(fn, "repro."):
		return "other"
	}
	return ""
}
