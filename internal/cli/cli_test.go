package cli

// Round-trip tests of the shared flag surface: every command's mask is
// parsed with a full argument vector and the values must land in Flags
// and flow through to hic.RunOptions. These catch the classic CLI drift
// bug — a flag that parses but is never wired into the options — for
// every command at once.

import (
	"bytes"
	"flag"
	"strings"
	"testing"
	"time"

	hic "repro"
)

func parse(t *testing.T, mask Mask, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, mask)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

// masks mirrors the per-command flag selections in cmd/*.
var masks = map[string]Mask{
	"hicsim":  SweepFlags,
	"hicfuzz": FuzzFlags,
}

// argFor maps each registered shared flag to a non-default test value.
var argFor = map[Mask][]string{
	FlagScale:     {"-scale", "test"},
	FlagParallel:  {"-parallel", "3"},
	FlagTimeout:   {"-timeout", "90s"},
	FlagJSON:      {"-json"},
	FlagTiming:    {"-timing"},
	FlagCheck:     {"-check"},
	FlagCoherence: {"-check-coherence"},
	FlagFaults:    {"-faults", "drop-wb@0"},
	FlagObs:       {"-metrics", "-trace-chrome", "out.json"},
	FlagProfile:   {"-cpuprofile", "cpu.out", "-memprofile", "mem.out"},
	FlagExplore:   {"-enumerate", "-k", "3"},
}

func TestEveryCommandMaskRoundTrips(t *testing.T) {
	all := []Mask{FlagScale, FlagParallel, FlagTimeout, FlagJSON, FlagTiming,
		FlagCheck, FlagCoherence, FlagFaults, FlagObs, FlagProfile, FlagExplore}
	for name, mask := range masks {
		t.Run(name, func(t *testing.T) {
			var args []string
			for _, bit := range all {
				if mask&bit != 0 {
					args = append(args, argFor[bit]...)
				}
			}
			f := parse(t, mask, args...)
			if mask&FlagScale != 0 {
				if s, err := f.ScaleValue(); err != nil || s != hic.ScaleTest {
					t.Errorf("scale = %v, %v; want ScaleTest", s, err)
				}
			}
			if mask&FlagParallel != 0 && f.Parallel != 3 {
				t.Errorf("parallel = %d, want 3", f.Parallel)
			}
			if mask&FlagTimeout != 0 && f.Timeout != 90*time.Second {
				t.Errorf("timeout = %s, want 90s", f.Timeout)
			}
			if mask&FlagJSON != 0 && !f.JSON {
				t.Error("-json not recorded")
			}
			if mask&FlagTiming != 0 && !f.Timing {
				t.Error("-timing not recorded")
			}
			if mask&FlagCheck != 0 && !f.Check {
				t.Error("-check not recorded")
			}
			if mask&FlagCoherence != 0 && !f.CheckCoherence {
				t.Error("-check-coherence not recorded")
			}
			if mask&FlagFaults != 0 && f.Faults != "drop-wb@0" {
				t.Errorf("faults = %q", f.Faults)
			}
			if mask&FlagObs != 0 && (!f.Metrics || f.TraceChrome != "out.json") {
				t.Errorf("metrics/trace-chrome = %v/%q", f.Metrics, f.TraceChrome)
			}
			if mask&FlagProfile != 0 && (f.CPUProfile != "cpu.out" || f.MemProfile != "mem.out") {
				t.Errorf("profiles = %q/%q", f.CPUProfile, f.MemProfile)
			}
			if mask&FlagExplore != 0 && (!f.Enumerate || f.K != 3) {
				t.Errorf("enumerate/k = %v/%d, want true/3", f.Enumerate, f.K)
			}
			if err := f.Validate(); err != nil {
				t.Errorf("Validate: %v", err)
			}
		})
	}
}

func TestUnselectedFlagsAreNotRegistered(t *testing.T) {
	// A command that did not select a flag must reject it, not silently
	// swallow it with a default.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&bytes.Buffer{})
	Register(fs, FlagJSON)
	if err := fs.Parse([]string{"-parallel", "4"}); err == nil {
		t.Error("mask without FlagParallel accepted -parallel")
	}
	// The removed -schema and -dpor flags parse under no mask.
	for _, args := range [][]string{{"-schema", "v2"}, {"-dpor=false"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(&bytes.Buffer{})
		Register(fs, SweepFlags|FuzzFlags|FlagExplore)
		if err := fs.Parse(args); err == nil {
			t.Errorf("removed flag %v still parses", args)
		}
	}
}

func TestOptionsFlowIntoRunOptions(t *testing.T) {
	f := parse(t, SweepFlags, "-parallel", "5", "-timeout", "30s", "-faults", "drop-wb@1")
	o := hic.NewRunOptions(f.Options()...)
	if o.Parallel != 5 || o.Timeout != 30*time.Second {
		t.Errorf("orchestration = %d/%s", o.Parallel, o.Timeout)
	}
	if o.Faults != "drop-wb@1" {
		t.Errorf("faults = %q", o.Faults)
	}
	// "matrix" is a command-level mode, not a plan: it must not reach
	// the options.
	f2 := parse(t, SweepFlags, "-faults", "matrix")
	if o2 := hic.NewRunOptions(f2.Options()...); o2.Faults != "" {
		t.Errorf(`faults = %q, want "" for -faults matrix`, o2.Faults)
	}
}

func TestValidateRejectsBadOpBudget(t *testing.T) {
	f := parse(t, FlagJSON|FlagExplore, "-k", "0")
	if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "-k") {
		t.Errorf("Validate = %v, want op-budget error", err)
	}
}

func TestValidateServerFlags(t *testing.T) {
	// The server runs its own workers under its own per-run bound, and
	// returns canonical documents: flags it would drop are refused.
	for _, tc := range []struct {
		args []string
		want string // "" means accepted
	}{
		{[]string{"-json"}, ""},
		{[]string{"-json", "-check", "-check-coherence", "-metrics"}, ""},
		{[]string{}, "requires -json"},
		{[]string{"-json", "-parallel", "3"}, "-parallel and -timeout"},
		{[]string{"-json", "-timeout", "5s"}, "-parallel and -timeout"},
		{[]string{"-json", "-timing"}, "-timing"},
		{[]string{"-json", "-trace-chrome", "t.json"}, "-trace-chrome"},
		{[]string{"-json", "-cpuprofile", "cpu.out"}, "profiling"},
	} {
		f := parse(t, SweepFlags, append(tc.args, "-server", "http://127.0.0.1:1")...)
		err := f.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: Validate = %v, want accepted", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: Validate = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestScaleValueRejectsUnknownScale(t *testing.T) {
	f := parse(t, FlagScale, "-scale", "huge")
	if _, err := f.ScaleValue(); err == nil {
		t.Error("unknown scale accepted")
	}
}
