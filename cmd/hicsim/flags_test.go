package main

// In-process tests of hicsim's command line: parse runs on a fresh flag
// set, so these run under -short, where the binary-building tests skip.

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	hic "repro"
	"repro/internal/serve"
)

// parseCase is one command line of TestParse.
type parseCase struct {
	name string
	args []string
	want string // error substring; "" means accepted
	// check inspects the options of an accepted command line.
	check func(t *testing.T, o *options)
}

func TestParse(t *testing.T) {
	cases := []parseCase{
		{name: "defaults", check: func(t *testing.T, o *options) {
			if want := (serve.Request{Suite: "all", Scale: "bench"}); !reflect.DeepEqual(o.req, want) {
				t.Errorf("request = %+v, want %+v", o.req, want)
			}
			if o.scale != hic.ScaleBench {
				t.Errorf("scale = %v, want bench", o.scale)
			}
		}},
		{name: "sweep-flags-fill-the-request", args: []string{"-suite", "manycore", "-blocks", "4", "-cores-per-block", "2",
			"-scale", "test", "-check-coherence", "-metrics", "-json", "-timing", "-check", "-parallel", "3", "-timeout", "90s",
			"-cpuprofile", "cpu.out", "-memprofile", "mem.out"},
			check: func(t *testing.T, o *options) {
				want := serve.Request{Suite: "manycore", Scale: "test", Coherence: true, Metrics: true, Blocks: 4, CoresPerBlock: 2}
				if !reflect.DeepEqual(o.req, want) {
					t.Errorf("request = %+v, want %+v", o.req, want)
				}
				if o.scale != hic.ScaleTest || o.parallel != 3 || o.timeout != 90*time.Second ||
					!o.json || !o.timing || !o.check || o.cpuProfile != "cpu.out" || o.memProfile != "mem.out" {
					t.Errorf("options = %+v", o)
				}
			}},
		{name: "manycore-defaults-its-cores", args: []string{"-suite", "manycore", "-blocks", "2"},
			check: func(t *testing.T, o *options) {
				if o.req.CoresPerBlock != hic.DefaultManycoreCoresPerBlock || o.req.Scale != "bench" {
					t.Errorf("request = %+v, want %d cores per block at bench scale", o.req, hic.DefaultManycoreCoresPerBlock)
				}
			}},
		{name: "litmus-flags-fill-the-request", args: []string{"-suite", "litmus", "-enumerate", "-k", "3",
			"-config", "Base", "-budget", "5", "-v"},
			check: func(t *testing.T, o *options) {
				want := serve.Request{Suite: "litmus", Enumerate: true, K: 3, Config: "Base", Budget: 5}
				if !reflect.DeepEqual(o.req, want) || !o.verbose {
					t.Errorf("request = %+v, verbose %v; want %+v, verbose", o.req, o.verbose, want)
				}
			}},
		{name: "parallel-reaches-a-litmus-run", args: []string{"-suite", "litmus", "-enumerate", "-k", "3", "-json", "-parallel", "3"},
			check: func(t *testing.T, o *options) {
				if env := o.env(); env.Parallel != 3 {
					t.Errorf("env.Parallel = %d, want 3", env.Parallel)
				}
				if want := (serve.Request{Suite: "litmus", Enumerate: true, K: 3}); !reflect.DeepEqual(o.req, want) {
					t.Errorf("request = %+v, want %+v: the worker count must not enter the request", o.req, want)
				}
			}},
		{name: "litmus-has-no-scale", args: []string{"-suite", "litmus", "-test", "sb"},
			check: func(t *testing.T, o *options) {
				if want := (serve.Request{Suite: "litmus", Test: "sb"}); !reflect.DeepEqual(o.req, want) {
					t.Errorf("request = %+v, want %+v", o.req, want)
				}
			}},
		{name: "faults-plan-reaches-run-options", args: []string{"-parallel", "5", "-timeout", "30s", "-faults", "drop-wb@1"},
			check: func(t *testing.T, o *options) {
				ro := hic.NewRunOptions(o.faultOptions()...)
				if ro.Parallel != 5 || ro.Timeout != 30*time.Second || ro.Faults != "drop-wb@1" {
					t.Errorf("run options = %d/%s/%q, want 5/30s/drop-wb@1", ro.Parallel, ro.Timeout, ro.Faults)
				}
			}},
		{name: "faults-matrix-contributes-no-plan", args: []string{"-scale", "test", "-faults", "matrix"},
			check: func(t *testing.T, o *options) {
				if ro := hic.NewRunOptions(o.faultOptions()...); ro.Faults != "" {
					t.Errorf(`faults = %q, want "" for -faults matrix`, ro.Faults)
				}
				if o.scale != hic.ScaleTest {
					t.Errorf("scale = %v, want test", o.scale)
				}
			}},
		{name: "fuzz-defaults", args: []string{"-suite", "fuzz"},
			check: func(t *testing.T, o *options) {
				if want := (serve.Request{Suite: "fuzz", Seeds: "1:201", Mutants: 2}); !reflect.DeepEqual(o.req, want) {
					t.Errorf("request = %+v, want %+v", o.req, want)
				}
			}},
		{name: "fuzz-flags-fill-the-request", args: []string{"-suite", "fuzz", "-seeds", "05:9", "-mutants", "3",
			"-config", "B+M", "-parallel", "2", "-json", "-timing"},
			check: func(t *testing.T, o *options) {
				want := serve.Request{Suite: "fuzz", Seeds: "5:9", Mutants: 3, Config: "B+M"}
				if !reflect.DeepEqual(o.req, want) || o.parallel != 2 || !o.json || !o.timing {
					t.Errorf("request = %+v, options = %+v; want %+v, -parallel 2 -json -timing", o.req, o, want)
				}
			}},
		{name: "fuzz-corpus", args: []string{"-suite", "fuzz", "-seeds", "3:6", "-corpus", "dir"},
			check: func(t *testing.T, o *options) {
				if lo, hi := o.req.SeedRange(); o.corpus != "dir" || lo != 3 || hi != 6 {
					t.Errorf("corpus %q, seeds [%d,%d); want dir, [3,6)", o.corpus, lo, hi)
				}
			}},
		{name: "fuzz-server", args: []string{"-suite", "fuzz", "-seeds", "1:21", "-json", "-server", "http://127.0.0.1:1"}},
		{name: "table1-scale", args: []string{"-suite", "table1", "-scale", "test"},
			check: func(t *testing.T, o *options) {
				if o.scale != hic.ScaleTest {
					t.Errorf("scale = %v, want test", o.scale)
				}
			}},

		// -server refuses the flags the server cannot honor.
		{name: "server-json", args: []string{"-json", "-server", "http://127.0.0.1:1"}},
		{name: "server-request-flags", args: []string{"-json", "-check", "-check-coherence", "-metrics", "-server", "http://127.0.0.1:1"}},
		{name: "server-without-json", args: []string{"-server", "http://127.0.0.1:1"}, want: "requires -json"},
		{name: "server-parallel", args: []string{"-json", "-parallel", "3", "-server", "http://127.0.0.1:1"}, want: "-parallel and -timeout"},
		{name: "server-timeout", args: []string{"-json", "-timeout", "5s", "-server", "http://127.0.0.1:1"}, want: "-parallel and -timeout"},
		{name: "server-timing", args: []string{"-json", "-timing", "-server", "http://127.0.0.1:1"}, want: "-timing"},
		{name: "server-trace-chrome", args: []string{"-json", "-trace-chrome", "t.json", "-server", "http://127.0.0.1:1"}, want: "-trace-chrome"},
		{name: "server-cpuprofile", args: []string{"-json", "-cpuprofile", "cpu.out", "-server", "http://127.0.0.1:1"}, want: "profiling"},
		{name: "server-tenant", args: []string{"-json", "-tenant", "x", "-server", "http://127.0.0.1:1"}},

		// A flag that only shapes another flag's output is refused without it.
		{name: "tenant-without-server", args: []string{"-suite", "overhead", "-tenant", "x"}, want: "-tenant requires -server"},
		{name: "timing-without-json", args: []string{"-suite", "inter", "-scale", "test", "-timing"}, want: "-timing requires -json"},
		{name: "v-with-json", args: []string{"-suite", "fuzz", "-seeds", "1:3", "-json", "-v"}, want: "-v does not apply to -json"},

		{name: "k-zero", args: []string{"-suite", "litmus", "-enumerate", "-k", "0"}, want: "-k 0: want an op budget of at least 1"},
		{name: "unknown-scale", args: []string{"-scale", "huge"}, want: `unknown scale "huge"`},
		{name: "unknown-scale-table1", args: []string{"-suite", "table1", "-scale", "huge"}, want: `unknown scale "huge"`},
		{name: "unknown-scale-faults", args: []string{"-scale", "huge", "-faults", "matrix"}, want: `unknown scale "huge"`},
		{name: "removed-schema", args: []string{"-schema", "v2"}, want: "flag provided but not defined: -schema"},
		{name: "removed-dpor", args: []string{"-dpor=false"}, want: "flag provided but not defined: -dpor"},
		{name: "removed-max-schedules", args: []string{"-suite", "litmus", "-max-schedules", "3"}, want: "flag provided but not defined: -max-schedules"},

		// Negative worker counts and timeouts are refused, not read as
		// GOMAXPROCS and as no timeout.
		{name: "negative-parallel", args: []string{"-suite", "litmus", "-test", "sb", "-parallel", "-3"}, want: "-parallel -3: must not be negative"},
		{name: "negative-timeout", args: []string{"-suite", "intra", "-scale", "test", "-timeout", "-1s", "-json"}, want: "-timeout -1s: must not be negative"},
		{name: "negative-parallel-faults", args: []string{"-faults", "matrix", "-parallel", "-1"}, want: "-parallel -1: must not be negative"},
		{name: "zero-parallel-and-timeout", args: []string{"-suite", "fuzz", "-seeds", "1:3", "-parallel", "0"},
			check: func(t *testing.T, o *options) {
				if o.parallel != 0 || o.timeout != 0 {
					t.Errorf("parallel/timeout = %d/%s, want 0/0s", o.parallel, o.timeout)
				}
			}},

		// Oversized inputs fail with Request.Normalize's bound.
		{name: "huge-blocks", args: []string{"-suite", "manycore", "-blocks", "9223372036854775807"}, want: "blocks 9223372036854775807: want at most 256"},
		{name: "huge-cores-per-block", args: []string{"-suite", "manycore", "-blocks", "2", "-cores-per-block", "9223372036854775807"}, want: "cores_per_block 9223372036854775807: want at most 32"},
		{name: "huge-k", args: []string{"-suite", "litmus", "-enumerate", "-k", "9223372036854775807"}, want: "k 9223372036854775807: want an op budget of at most 5"},

		// TestHicsimFlagPlumbing's rejections, in process.
		{name: "blocks-outside-manycore", args: []string{"-suite", "intra", "-scale", "test", "-blocks", "2"}, want: "-blocks does not apply to -suite intra"},
		{name: "cores-per-block-outside-manycore", args: []string{"-scale", "test", "-cores-per-block", "4"}, want: "-cores-per-block does not apply to -suite all"},
		{name: "faults-with-suite", args: []string{"-suite", "inter", "-scale", "test", "-faults", "matrix"}, want: "-faults does not apply"},
		{name: "json-with-table1", args: []string{"-suite", "table1", "-scale", "test", "-json"}, want: "-json does not apply"},
		{name: "check-with-table1", args: []string{"-suite", "table1", "-scale", "test", "-check"}, want: "-check does not apply"},
		{name: "server-with-table1", args: []string{"-suite", "table1", "-scale", "test", "-server", "http://127.0.0.1:1"}, want: "-server does not apply"},
		{name: "unknown-suite", args: []string{"-suite", "storage", "-scale", "test"}, want: "unknown -suite"},
		{name: "block-parallel", args: []string{"-suite", "manycore", "-blocks", "2", "-scale", "test", "-block-parallel"}, want: "flag provided but not defined: -block-parallel"},
		{name: "litmus-flag-on-sweep", args: []string{"-suite", "inter", "-scale", "test", "-test", "sb"}, want: "-test does not apply to -suite inter"},
		{name: "scale-with-litmus", args: []string{"-suite", "litmus", "-scale", "test"}, want: "-scale does not apply to -suite litmus"},
		{name: "v-with-sweep", args: []string{"-suite", "inter", "-scale", "test", "-v"}, want: "-v does not apply"},
		{name: "litmus-enumerate-with-test", args: []string{"-suite", "litmus", "-enumerate", "-test", "sb"}, want: "test applies to the curated suite, not -enumerate"},
		{name: "litmus-negative-budget", args: []string{"-suite", "litmus", "-budget", "-5"}, want: "budget -5: must be non-negative"},
		{name: "litmus-k-without-enumerate", args: []string{"-suite", "litmus", "-k", "3"}, want: "-k applies to -suite litmus -enumerate only"},

		// A request flag the suite does not use is refused even at its
		// zero value, which Normalize cannot tell from unset.
		{name: "overhead-zero-request-flags", args: []string{"-suite", "overhead", "-budget", "0", "-metrics=false", "-enumerate=false", "-blocks", "0"}, want: "-blocks does not apply to -suite overhead"},
		{name: "litmus-zero-blocks", args: []string{"-suite", "litmus", "-blocks", "0"}, want: "-blocks does not apply to -suite litmus"},
		{name: "litmus-empty-scale", args: []string{"-suite", "litmus", "-scale", ""}, want: "-scale does not apply to -suite litmus"},
		{name: "sweep-zero-cores-per-block", args: []string{"-suite", "inter", "-scale", "test", "-cores-per-block", "0"}, want: "-cores-per-block does not apply to -suite inter"},
		{name: "sweep-zero-litmus-flags", args: []string{"-suite", "intra", "-scale", "test", "-enumerate=false", "-k", "0"}, want: "-enumerate does not apply to -suite intra"},
		{name: "litmus-zero-own-flags", args: []string{"-suite", "litmus", "-enumerate=false", "-budget", "0", "-config", ""}},
		{name: "sweep-zero-mutants", args: []string{"-suite", "intra", "-scale", "test", "-mutants", "0"}, want: "-mutants does not apply to -suite intra"},

		// The fuzz suite's flags stay on it, and the other suites' off it.
		{name: "seeds-on-litmus", args: []string{"-suite", "litmus", "-seeds", "1:3"}, want: "-seeds does not apply to -suite litmus"},
		{name: "mutants-on-overhead", args: []string{"-suite", "overhead", "-mutants", "3"}, want: "-mutants does not apply to -suite overhead"},
		{name: "corpus-on-litmus", args: []string{"-suite", "litmus", "-corpus", "dir"}, want: "-corpus does not apply to -suite litmus"},
		{name: "fuzz-litmus-flag", args: []string{"-suite", "fuzz", "-test", "sb"}, want: "-test does not apply to -suite fuzz"},
		{name: "fuzz-scale", args: []string{"-suite", "fuzz", "-scale", "test"}, want: "-scale does not apply to -suite fuzz"},
		{name: "fuzz-timeout", args: []string{"-suite", "fuzz", "-timeout", "1s"}, want: "-timeout does not apply to -suite fuzz"},
		{name: "fuzz-check", args: []string{"-suite", "fuzz", "-json", "-check"}, want: "-check does not apply to -suite fuzz"},
		{name: "fuzz-unknown-config", args: []string{"-suite", "fuzz", "-config", "no-such-config"}, want: `unknown litmus config "no-such-config"`},
		{name: "fuzz-negative-mutants", args: []string{"-suite", "fuzz", "-mutants", "-1"}, want: "mutants -1: want 0 to 64"},
		{name: "fuzz-huge-mutants", args: []string{"-suite", "fuzz", "-mutants", "1000000000000"}, want: "mutants 1000000000000: want 0 to 64"},
		{name: "fuzz-huge-seeds", args: []string{"-suite", "fuzz", "-seeds", "1:1002"}, want: `seeds "1:1002": want at most 1000 seeds`},
		{name: "fuzz-server-timing", args: []string{"-suite", "fuzz", "-json", "-timing", "-server", "http://127.0.0.1:1"}, want: "-timing"},
		{name: "corpus-with-json", args: []string{"-suite", "fuzz", "-corpus", "dir", "-json"}, want: "-json does not apply to -corpus"},
		{name: "corpus-with-mutants", args: []string{"-suite", "fuzz", "-corpus", "dir", "-mutants", "3"}, want: "-mutants does not apply to -corpus"},
		{name: "corpus-with-server", args: []string{"-suite", "fuzz", "-corpus", "dir", "-json", "-server", "http://127.0.0.1:1"}, want: "does not apply to -corpus"},
		{name: "corpus-default-seeds", args: []string{"-suite", "fuzz", "-corpus", "dir"},
			check: func(t *testing.T, o *options) {
				if lo, hi := o.req.SeedRange(); lo != 1 || hi != 201 {
					t.Errorf("seeds [%d,%d), want the campaign's [1,201)", lo, hi)
				}
			}},
	}
	for _, tc := range append(cases, outOfScopeCases(t)...) {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("hicsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o, err := parse(fs, tc.args)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("parse %v: %v, want accepted", tc.args, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("parse %v: %v, want error containing %q", tc.args, err, tc.want)
			case tc.check != nil:
				tc.check(t, o)
			}
		})
	}
}

// TestParseSeeds: -seeds takes a non-empty half-open LO:HI range. A
// campaign holds at most serve.MaxSeeds seeds, as a served one does; a
// corpus, which computes nothing, may span any range.
func TestParseSeeds(t *testing.T) {
	parseSeeds := func(seeds string, extra ...string) (lo, hi uint64, err error) {
		fs := flag.NewFlagSet("hicsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parse(fs, append([]string{"-suite", "fuzz", "-seeds", seeds}, extra...))
		if err != nil {
			return 0, 0, err
		}
		lo, hi = o.req.SeedRange()
		return lo, hi, nil
	}
	if lo, hi, err := parseSeeds("1:201"); err != nil || lo != 1 || hi != 201 {
		t.Fatalf("parseSeeds(1:201) = %d, %d, %v", lo, hi, err)
	}
	for _, bad := range []string{"", "5", "9:9", "10:5", "a:b"} {
		if _, _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
		if _, _, err := parseSeeds(bad, "-corpus", "dir"); err == nil {
			t.Errorf("parseSeeds(%q) accepted with -corpus", bad)
		}
	}
	if _, _, err := parseSeeds("1:5001"); err == nil || !strings.Contains(err.Error(), "want at most") {
		t.Errorf("parseSeeds(1:5001) = %v, want the seed bound", err)
	}
	if lo, hi, err := parseSeeds("1:5001", "-corpus", "dir"); err != nil || lo != 1 || hi != 5001 {
		t.Errorf("parseSeeds(1:5001) with -corpus = %d, %d, %v", lo, hi, err)
	}
}

// requestFields maps each serve.Request field's JSON name to the field.
func requestFields() map[string]reflect.StructField {
	fields := map[string]reflect.StructField{}
	for _, f := range reflect.VisibleFields(reflect.TypeFor[serve.Request]()) {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		fields[name] = f
	}
	return fields
}

// defaultFlags returns hicsim's flag set, parsed with no arguments.
func defaultFlags(t *testing.T) (*flag.FlagSet, *options) {
	t.Helper()
	fs := flag.NewFlagSet("hicsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parse(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fs, o
}

// outOfScopeCases generates, from serve.Uses, a refused command line
// for every suite that builds a Request and every request flag it does
// not use, once at the flag's zero value and once at a nonzero one.
func outOfScopeCases(t *testing.T) []parseCase {
	fields := requestFields()
	fs, _ := defaultFlags(t)
	var cases []parseCase
	for _, suite := range slices.Sorted(maps.Keys(accepts)) {
		if suite == "table1" {
			continue
		}
		fs.VisitAll(func(fl *flag.Flag) {
			f, ok := fields[field(fl.Name)]
			if !ok || serve.Uses(suite, field(fl.Name)) {
				return
			}
			values := map[reflect.Kind][2]string{
				reflect.Bool:   {"false", "true"},
				reflect.Int:    {"0", "3"},
				reflect.String: {"", "x"},
			}[f.Type.Kind()]
			if values[1] == "" {
				t.Fatalf("-%s fills a %s field; give it zero and nonzero values", fl.Name, f.Type)
			}
			for i, v := range values {
				cases = append(cases, parseCase{
					name: fmt.Sprintf("out-of-scope/%s/-%s/%s", suite, fl.Name, []string{"zero", "nonzero"}[i]),
					args: []string{"-suite", suite, "-" + fl.Name + "=" + v},
					want: fmt.Sprintf("-%s does not apply to -suite %s", fl.Name, suite),
				})
			}
		})
	}
	if len(cases) == 0 {
		t.Fatal("no out-of-scope request flag")
	}
	return cases
}

// TestFlagsBindRequestFields: a flag fills the Request field it spells
// (see field) or is hicsim-only, and a hicsim-only flag spells no
// field, so the flag name alone says which field serve.Uses judges.
// Every hicsim-only flag is in some scope list, and every suite that
// builds a Request is one serve knows.
func TestFlagsBindRequestFields(t *testing.T) {
	fields := requestFields()
	fs, o := defaultFlags(t)
	bound := map[uintptr]string{}
	req := reflect.ValueOf(&o.req).Elem()
	for name, f := range fields {
		bound[req.FieldByIndex(f.Index).Addr().Pointer()] = name
	}
	lists := anySuite + " " + faultFlags + " " + strings.Join(slices.Collect(maps.Values(accepts)), " ")
	fs.VisitAll(func(fl *flag.Flag) {
		name, isField := bound[reflect.ValueOf(fl.Value).Pointer()]
		_, spellsField := fields[field(fl.Name)]
		switch {
		case isField && name != field(fl.Name):
			t.Errorf("-%s fills Request field %q, not %q", fl.Name, name, field(fl.Name))
		case !isField && spellsField:
			t.Errorf("hicsim-only flag -%s spells Request field %q", fl.Name, field(fl.Name))
		case !isField && !inList(lists, fl.Name):
			t.Errorf("hicsim-only flag -%s is in no scope list", fl.Name)
		}
	})
	for suite := range accepts {
		if suite != "table1" && !serve.Uses(suite, "suite") {
			t.Errorf("suite %s builds a Request, but serve does not know it", suite)
		}
	}
}
