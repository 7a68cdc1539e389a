// The suite model: a normalized, validated description of one
// document-producing run, plus its content address and its computation
// (Run), which both the server's workers and hicsim's local runs call.
// Normalization is strict —
// fields that do not apply to the requested suite (suiteFields) are
// rejected rather than ignored, so two requests that would compute
// identical bytes never hash to different addresses because of an inert
// field.

package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	hic "repro"
	"repro/internal/fuzzgen"
	"repro/internal/litmus"
	"repro/internal/obs"
	"repro/internal/overhead"
	"repro/internal/runner"
)

// Request describes one sweep. The zero value is invalid: Suite is
// required, and Normalize must succeed before Key or the computation
// are meaningful.
type Request struct {
	// Suite selects what runs: "intra", "inter", "all", or "manycore"
	// (kind results), "litmus" (kind litmus), "overhead" (kind
	// storage), or "fuzz" (kind fuzz).
	Suite string `json:"suite"`
	// Scale is the problem scale ("test" or "bench"; default "test").
	// Simulation suites only.
	Scale string `json:"scale,omitempty"`
	// Workloads restricts a simulation sweep to the named applications
	// (sorted and deduplicated by Normalize; unknown names are
	// rejected).
	Workloads []string `json:"workloads,omitempty"`
	// Coherence attaches the shadow-memory oracle to every run.
	Coherence bool `json:"coherence,omitempty"`
	// Metrics embeds per-run observability snapshots in the records.
	Metrics bool `json:"metrics,omitempty"`
	// Seed salts the content address (see hic.WithSeed).
	Seed int64 `json:"seed,omitempty"`
	// Blocks and CoresPerBlock shape the manycore sweep (suite
	// "manycore" only; Normalize rounds Blocks down to a power of two
	// and defaults CoresPerBlock to 8).
	Blocks        int `json:"blocks,omitempty"`
	CoresPerBlock int `json:"cores_per_block,omitempty"`
	// Test restricts the litmus suite matrix (suite "litmus" only);
	// Config restricts the litmus matrix or the fuzz campaign's.
	Test   string `json:"test,omitempty"`
	Config string `json:"config,omitempty"`
	// Budget bounds the scheduling decisions of each schedule a litmus
	// exploration runs (0 means the explorer's default).
	Budget int `json:"budget,omitempty"`
	// Enumerate sweeps the systematic litmus enumeration up to K ops
	// instead of the curated suite.
	Enumerate bool `json:"enumerate,omitempty"`
	K         int  `json:"k,omitempty"`
	// Seeds is the fuzz campaign's half-open seed range "LO:HI", one
	// generated program per seed (suite "fuzz" only; Normalize defaults
	// it to 1:201), and Mutants the under-annotated variants derived
	// per program (default 2).
	Seeds   string `json:"seeds,omitempty"`
	Mutants int    `json:"mutants,omitempty"`
}

// Bounds on the request fields that size a computation. Each admits
// what the repository runs, with headroom: the 1024-core manycore sweep
// (128 blocks of 8 cores), the exhaustive litmus enumeration up to
// k=5, and the 800-seed fuzz campaign mutating every site of each
// program (a few dozen at most). The largest machine has 8192 cores.
const (
	MaxBlocks        = 256
	MaxCoresPerBlock = 32
	MaxK             = 5
	MaxSeeds         = 1000
	MaxMutants       = 64
)

// simFields are the Request fields every simulation suite uses.
const simFields = "scale workloads coherence metrics seed"

// suiteFields maps each suite to the JSON names of the Request fields it
// uses, besides suite itself. It is the one place that decision lives:
// Normalize refuses any other field a request sets, and hicsim refuses
// any other request flag.
var suiteFields = map[string]string{
	"intra":    simFields,
	"inter":    simFields,
	"all":      simFields,
	"manycore": simFields + " blocks cores_per_block",
	"litmus":   "test config budget enumerate k",
	"overhead": "",
	"fuzz":     "config seeds mutants",
}

// Uses reports whether suite uses the Request field whose JSON name is
// field. Every suite uses suite; an unknown suite uses nothing.
func Uses(suite, field string) bool {
	fields, ok := suiteFields[suite]
	return ok && (field == "suite" || slices.Contains(strings.Fields(fields), field))
}

// Simulation reports whether the suite runs the experiment sweeps (as
// opposed to the litmus explorer or the storage computation).
func (r *Request) Simulation() bool {
	return Uses(r.Suite, "scale")
}

// Normalize fills defaults, canonicalizes spellings, and validates; the
// request is ready for Key and computation afterward. Errors are safe
// to return to clients.
func (r *Request) Normalize() error {
	if _, ok := suiteFields[r.Suite]; !ok {
		return fmt.Errorf("unknown suite %q (want intra, inter, all, manycore, litmus, overhead, or fuzz)", r.Suite)
	}
	// A field counts as set when the canonical JSON Key hashes names it.
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	var set map[string]json.RawMessage
	if err := json.Unmarshal(b, &set); err != nil {
		return err
	}
	for _, field := range slices.Sorted(maps.Keys(set)) {
		if !Uses(r.Suite, field) {
			return fmt.Errorf("%s does not apply to suite %s", field, r.Suite)
		}
	}
	switch {
	case r.Simulation():
		if r.Scale == "" {
			r.Scale = "test"
		}
		if r.Scale != "test" && r.Scale != "bench" {
			return fmt.Errorf("unknown scale %q (want test or bench)", r.Scale)
		}
		if r.Suite == "manycore" {
			if r.Blocks < 1 {
				return fmt.Errorf("suite manycore requires blocks >= 1")
			}
			if r.Blocks > MaxBlocks {
				return fmt.Errorf("blocks %d: want at most %d", r.Blocks, MaxBlocks)
			}
			// The sweep runs the powers of two up to blocks; name the
			// largest it runs, so equal sweeps share one address.
			counts := hic.ManycoreBlockCounts(r.Blocks)
			r.Blocks = counts[len(counts)-1]
			if r.CoresPerBlock == 0 {
				r.CoresPerBlock = hic.DefaultManycoreCoresPerBlock
			}
			if r.CoresPerBlock < 1 {
				return fmt.Errorf("cores_per_block %d: want at least 1", r.CoresPerBlock)
			}
			if r.CoresPerBlock > MaxCoresPerBlock {
				return fmt.Errorf("cores_per_block %d: want at most %d", r.CoresPerBlock, MaxCoresPerBlock)
			}
		}
		if err := r.normalizeWorkloads(); err != nil {
			return err
		}
	case r.Suite == "litmus":
		if r.Enumerate {
			if r.Test != "" {
				return fmt.Errorf("test applies to the curated suite, not -enumerate")
			}
			if r.K == 0 {
				r.K = 4
			}
			if r.K < 1 {
				return fmt.Errorf("k %d: want an op budget of at least 1", r.K)
			}
			if r.K > MaxK {
				return fmt.Errorf("k %d: want an op budget of at most %d", r.K, MaxK)
			}
		} else {
			// K is inert without Enumerate; canonicalize instead of
			// branding equal computations with different addresses.
			r.K = 0
			if r.Test != "" {
				if _, ok := litmus.SuiteTest(r.Test); !ok {
					return fmt.Errorf("unknown litmus test %q", r.Test)
				}
			}
		}
		if r.Budget < 0 {
			return fmt.Errorf("budget %d: must be non-negative", r.Budget)
		}
	case r.Suite == "fuzz":
		if r.Seeds == "" {
			r.Seeds = "1:201"
		}
		lo, hi, err := ParseSeeds(r.Seeds)
		if err != nil {
			return err
		}
		if hi-lo > MaxSeeds {
			return fmt.Errorf("seeds %q: want at most %d seeds", r.Seeds, MaxSeeds)
		}
		r.Seeds = fmt.Sprintf("%d:%d", lo, hi)
		if r.Mutants == 0 {
			r.Mutants = 2
		}
		if r.Mutants < 0 || r.Mutants > MaxMutants {
			return fmt.Errorf("mutants %d: want 0 to %d", r.Mutants, MaxMutants)
		}
	}
	if r.Config != "" {
		if _, ok := litmus.ConfigByName(r.Config); !ok {
			return fmt.Errorf("unknown litmus config %q", r.Config)
		}
	}
	return nil
}

// ParseSeeds parses a "LO:HI" seed range into a non-empty half-open
// range. It sets no size bound: Normalize bounds a request's range by
// MaxSeeds, while a corpus written locally may span any range.
func ParseSeeds(s string) (lo, hi uint64, err error) {
	l, h, ok := strings.Cut(s, ":")
	lo, lerr := strconv.ParseUint(l, 10, 64)
	hi, herr := strconv.ParseUint(h, 10, 64)
	switch {
	case !ok || lerr != nil || herr != nil:
		return 0, 0, fmt.Errorf("seeds %q: want LO:HI", s)
	case lo >= hi:
		return 0, 0, fmt.Errorf("seeds %q: empty range", s)
	}
	return lo, hi, nil
}

// SeedRange returns the seed range [lo, hi) of a fuzz request whose
// Seeds ParseSeeds accepts.
func (r *Request) SeedRange() (lo, hi uint64) {
	lo, hi, _ = ParseSeeds(r.Seeds)
	return lo, hi
}

// normalizeWorkloads sorts, deduplicates, and validates the workload
// filter against the suite's applications.
func (r *Request) normalizeWorkloads() error {
	for _, w := range r.Workloads {
		if len(r.cells([]string{w})) == 0 {
			return fmt.Errorf("unknown workload %q for suite %s", w, r.Suite)
		}
	}
	ws := slices.Clone(r.Workloads)
	slices.Sort(ws)
	r.Workloads = slices.Compact(ws)
	return nil
}

func (r *Request) scale() hic.Scale {
	if r.Scale == "bench" {
		return hic.ScaleBench
	}
	return hic.ScaleTest
}

// keyEnvelope is what the content address hashes: the normalized
// request plus the code version, so a new simulator build never reuses
// old bytes.
type keyEnvelope struct {
	Request
	CodeVersion string `json:"code_version"`
}

// Key returns the request's content address: the hex SHA-256 of the
// canonical JSON of the normalized request and the code version.
// Tenant identity is deliberately absent — identical requests from
// different tenants share bytes.
func (r *Request) Key() string {
	b, err := json.Marshal(keyEnvelope{Request: *r, CodeVersion: runner.CodeVersion()})
	if err != nil {
		panic(fmt.Sprintf("serve: request marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Env is the execution context of one request: the orchestration the
// request does not control, so it never enters the content address.
type Env struct {
	// Parallel and Timeout are the per-sweep worker count and per-run
	// bound.
	Parallel int
	Timeout  time.Duration
	// Trace retains each simulation cell's stall timeline in the typed
	// results (hicsim -trace-chrome).
	Trace bool
	// Cells is the shared cell-level result cache (nil disables it).
	Cells *runner.MemCache
	// Observer, when non-nil, receives each completed simulation cell
	// for live progress. It does not fire for cells served from the
	// cell cache.
	Observer func(workload, config string)
}

// options converts the request and environment to run options.
func (r *Request) options(env Env) []hic.Option {
	opts := []hic.Option{
		hic.WithParallel(env.Parallel),
		hic.WithTimeout(env.Timeout),
	}
	if len(r.Workloads) > 0 {
		opts = append(opts, hic.WithOnly(r.Workloads...))
	}
	if r.Coherence {
		opts = append(opts, hic.WithCoherenceCheck())
	}
	if r.Metrics {
		opts = append(opts, hic.WithMetrics())
	}
	if r.Seed != 0 {
		opts = append(opts, hic.WithSeed(r.Seed))
	}
	if env.Trace {
		opts = append(opts, hic.WithTracing())
	}
	if env.Cells != nil {
		opts = append(opts, hic.WithCache(env.Cells))
	}
	if env.Observer != nil {
		done := env.Observer
		opts = append(opts, hic.WithObserver(func(w, c string, _ *hic.Recorder) { done(w, c) }))
	}
	return opts
}

// Result is one computed request: its document, and the typed results
// a text report renders from. Exactly one of Doc, Litmus, Storage and
// Fuzz is set.
type Result struct {
	// Doc is a simulation suite's results document.
	Doc *runner.Document
	// Litmus is the litmus suite's document; failed verdicts are data
	// (see litmus.Document.Failed), not a Run error.
	Litmus *litmus.Document
	// Storage is the overhead suite's storage comparison.
	Storage *overhead.Report
	// Fuzz is the fuzz campaign's report; failed cells are data (see
	// fuzzgen.Report.Failed), not a Run error.
	Fuzz *fuzzgen.Report
	// Intra, Inter and Manycore are the sweeps behind Doc (suite all
	// runs both Intra and Inter).
	Intra    *hic.IntraResult
	Inter    *hic.InterResult
	Manycore *hic.ManycoreResult
	// Traces holds the cells' stall timelines when Env.Trace is set.
	Traces []obs.CellTrace
	// Walls is each sweep's host wall time, in run order.
	Walls []time.Duration
}

// Run computes a normalized request locally. It is the one computation
// behind both the server's workers and hicsim's local runs. A
// simulation sweep's cell failures come back as the joined error
// together with the partial result, whose document records every cell.
func (r *Request) Run(ctx context.Context, env Env) (*Result, error) {
	s := r.scale()
	opts := r.options(env)
	res := &Result{}
	var errs []error
	// sweep times one sweep run and records its error.
	sweep := func(run func() error) {
		start := time.Now()
		errs = append(errs, run())
		res.Walls = append(res.Walls, time.Since(start))
	}
	switch r.Suite {
	case "litmus":
		doc, err := r.litmusDocument(ctx, env.Parallel)
		if err != nil {
			return nil, err
		}
		res.Litmus = doc
	case "overhead":
		res.Storage = overhead.Compute(overhead.PaperMachine())
	case "fuzz":
		rep, err := r.fuzzReport(ctx, env.Parallel)
		if err != nil {
			return nil, err
		}
		res.Fuzz = rep
	case "manycore":
		sweep(func() (err error) {
			res.Manycore, err = hic.RunManycore(ctx, s, hic.ManycoreBlockCounts(r.Blocks), r.CoresPerBlock, opts...)
			return err
		})
		res.Doc = res.Manycore.Document(s)
	default: // intra, inter, all
		var docs []*runner.Document
		if r.Suite != "inter" {
			sweep(func() (err error) {
				res.Intra, err = hic.RunIntra(ctx, s, opts...)
				return err
			})
			docs, res.Traces = append(docs, res.Intra.Document(s)), append(res.Traces, res.Intra.Traces...)
		}
		if r.Suite != "intra" {
			sweep(func() (err error) {
				res.Inter, err = hic.RunInter(ctx, s, opts...)
				return err
			})
			docs, res.Traces = append(docs, res.Inter.Document(s)), append(res.Traces, res.Inter.Traces...)
		}
		res.Doc = docs[0]
		if len(docs) > 1 {
			res.Doc = runner.Merge(docs...)
		}
	}
	return res, errors.Join(errs...)
}

// Encode writes the result's canonical document: the bytes the server
// serves and `hicsim -json` prints.
func (res *Result) Encode(w io.Writer) error {
	switch {
	case res.Doc != nil:
		return res.Doc.Encode(w)
	case res.Litmus != nil:
		return res.Litmus.Encode(w)
	case res.Fuzz != nil:
		return res.Fuzz.Encode(w)
	}
	return res.Storage.Document().Encode(w)
}

// EncodeTiming writes the document with the host wall times Encode
// strips (`hicsim -json -timing`); only results and fuzz documents
// record them.
func (res *Result) EncodeTiming(w io.Writer) error {
	switch {
	case res.Doc != nil:
		return res.Doc.EncodeTiming(w)
	case res.Fuzz != nil:
		return res.Fuzz.EncodeTiming(w)
	}
	return res.Encode(w)
}

// Failed reports whether the document records a failed litmus verdict
// or fuzz cell, which exits hicsim nonzero.
func (res *Result) Failed() bool {
	return res.Litmus != nil && res.Litmus.Failed() || res.Fuzz != nil && res.Fuzz.Failed()
}

// compute runs the request and returns the canonical document bytes;
// any Run error fails it.
func (r *Request) compute(ctx context.Context, env Env) ([]byte, error) {
	res, err := r.Run(ctx, env)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// litmusDocument runs the litmus suite or enumeration across workers
// goroutines (0 means GOMAXPROCS); canceling ctx stops it between
// explorations with ctx's error.
func (r *Request) litmusDocument(ctx context.Context, workers int) (*litmus.Document, error) {
	tests := litmus.Suite
	if r.Test != "" {
		t, _ := litmus.SuiteTest(r.Test) // validated by Normalize
		tests = []litmus.Test{t}
	}
	configs := litmus.Configs
	if r.Config != "" {
		c, _ := litmus.ConfigByName(r.Config)
		configs = []litmus.Config{c}
	}
	opts := litmus.Options{Budget: r.Budget}
	if r.Enumerate {
		return litmus.EnumerateDocument(ctx, configs, r.K, opts, workers)
	}
	return litmus.SuiteDocument(ctx, tests, configs, opts, workers)
}

// fuzzReport runs the fuzz campaign across workers goroutines (0 means
// GOMAXPROCS).
func (r *Request) fuzzReport(ctx context.Context, workers int) (*fuzzgen.Report, error) {
	lo, hi := r.SeedRange()
	opts := fuzzgen.Options{SeedLo: lo, SeedHi: hi, MutantsPerProgram: r.Mutants, Parallel: workers}
	if r.Config != "" {
		c, _ := litmus.ConfigByName(r.Config) // validated by Normalize
		opts.Configs = []litmus.Config{c}
	}
	return fuzzgen.Campaign(ctx, opts)
}

// cells lists the (workload, config) labels the suite runs under the
// workload filter only, in task order, for per-cell progress and
// workload validation. The sweeps define the order, and listing builds
// no application. Non-simulation suites have no cells.
func (r *Request) cells(only []string) [][2]string {
	switch r.Suite {
	case "intra":
		return hic.IntraCells(only...)
	case "inter":
		return hic.InterCells(only...)
	case "all":
		return append(hic.IntraCells(only...), hic.InterCells(only...)...)
	case "manycore":
		return hic.ManycoreCells(hic.ManycoreBlockCounts(r.Blocks), only...)
	}
	return nil
}
