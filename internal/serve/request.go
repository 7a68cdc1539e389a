// The suite model: a normalized, validated description of one
// document-producing run, plus its content address and its computation
// (Run), which both the server's workers and hicsim's local runs call.
// Normalization is strict —
// fields that do not apply to the requested suite are rejected rather
// than ignored, so two requests that would compute identical bytes
// never hash to different addresses because of an inert field.

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
	"slices"
	"time"

	hic "repro"
	"repro/internal/faultinject"
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
	// (kind results), "litmus" (kind litmus), or "overhead" (kind
	// storage).
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
	// Faults is a deterministic fault plan (internal/faultinject
	// grammar), canonicalized by Normalize.
	Faults string `json:"faults,omitempty"`
	// Seed salts the content address (see hic.WithSeed).
	Seed int64 `json:"seed,omitempty"`
	// Blocks and CoresPerBlock shape the manycore sweep (suite
	// "manycore" only; CoresPerBlock defaults to 8).
	Blocks        int `json:"blocks,omitempty"`
	CoresPerBlock int `json:"cores_per_block,omitempty"`
	// Test and Config restrict the litmus suite matrix (suite "litmus"
	// only).
	Test   string `json:"test,omitempty"`
	Config string `json:"config,omitempty"`
	// Budget and MaxSchedules bound each litmus exploration (0 means
	// the explorer's defaults).
	Budget       int `json:"budget,omitempty"`
	MaxSchedules int `json:"max_schedules,omitempty"`
	// Enumerate sweeps the systematic litmus enumeration up to K ops
	// instead of the curated suite.
	Enumerate bool `json:"enumerate,omitempty"`
	K         int  `json:"k,omitempty"`
}

// Bounds on the request fields that size a computation. Each admits
// what the repository runs, with headroom: the 1024-core manycore sweep
// (128 blocks of 8 cores) and the exhaustive litmus enumeration up to
// k=5. The largest machine they allow has 8192 cores.
const (
	MaxBlocks        = 256
	MaxCoresPerBlock = 32
	MaxK             = 5
)

// Simulation reports whether the suite runs the experiment sweeps (as
// opposed to the litmus explorer or the storage computation).
func (r *Request) Simulation() bool {
	switch r.Suite {
	case "intra", "inter", "all", "manycore":
		return true
	}
	return false
}

// Normalize fills defaults, canonicalizes spellings, and validates; the
// request is ready for Key and computation afterward. Errors are safe
// to return to clients.
func (r *Request) Normalize() error {
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
			if r.CoresPerBlock == 0 {
				r.CoresPerBlock = hic.DefaultManycoreCoresPerBlock
			}
			if r.CoresPerBlock < 1 {
				return fmt.Errorf("cores_per_block %d: want at least 1", r.CoresPerBlock)
			}
			if r.CoresPerBlock > MaxCoresPerBlock {
				return fmt.Errorf("cores_per_block %d: want at most %d", r.CoresPerBlock, MaxCoresPerBlock)
			}
		} else if r.Blocks != 0 || r.CoresPerBlock != 0 {
			return fmt.Errorf("blocks and cores_per_block apply to suite manycore only")
		}
		if r.Test != "" || r.Config != "" || r.Budget != 0 || r.MaxSchedules != 0 ||
			r.Enumerate || r.K != 0 {
			return fmt.Errorf("litmus parameters apply to suite litmus only")
		}
		if err := r.normalizeWorkloads(); err != nil {
			return err
		}
		if r.Faults != "" {
			plan, err := faultinject.Parse(r.Faults)
			if err != nil {
				return fmt.Errorf("faults: %w", err)
			}
			r.Faults = plan.String()
		}
	case r.Suite == "litmus":
		if err := r.rejectSimulationFields(); err != nil {
			return err
		}
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
		if r.Config != "" {
			if _, ok := litmus.ConfigByName(r.Config); !ok {
				return fmt.Errorf("unknown litmus config %q", r.Config)
			}
		}
		if r.Budget < 0 || r.MaxSchedules < 0 {
			return fmt.Errorf("budget and max_schedules must be non-negative")
		}
	case r.Suite == "overhead":
		if err := r.rejectSimulationFields(); err != nil {
			return err
		}
		if r.Test != "" || r.Config != "" || r.Budget != 0 || r.MaxSchedules != 0 ||
			r.Enumerate || r.K != 0 {
			return fmt.Errorf("litmus parameters apply to suite litmus only")
		}
	default:
		return fmt.Errorf("unknown suite %q (want intra, inter, all, manycore, litmus, or overhead)", r.Suite)
	}
	return nil
}

// rejectSimulationFields refuses sweep-only fields on non-simulation
// suites.
func (r *Request) rejectSimulationFields() error {
	if r.Scale != "" {
		return fmt.Errorf("scale applies to simulation suites only")
	}
	if len(r.Workloads) > 0 || r.Coherence || r.Metrics ||
		r.Faults != "" || r.Seed != 0 || r.Blocks != 0 || r.CoresPerBlock != 0 {
		return fmt.Errorf("simulation parameters apply to suites intra, inter, all, and manycore only")
	}
	return nil
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
	Cells runner.Cache
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
	if r.Faults != "" {
		opts = append(opts, hic.WithFaultPlan(r.Faults))
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
// a text report renders from. Exactly one of Doc, Litmus and Storage is
// set.
type Result struct {
	// Doc is a simulation suite's results document.
	Doc *runner.Document
	// Litmus is the litmus suite's document; failed verdicts are data
	// (see litmus.Document.Failed), not a Run error.
	Litmus *litmus.Document
	// Storage is the overhead suite's storage comparison.
	Storage *overhead.Report
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
		doc, err := r.litmusDocument()
		if err != nil {
			return nil, err
		}
		res.Litmus = doc
	case "overhead":
		res.Storage = overhead.Compute(overhead.PaperMachine())
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
	}
	return res.Storage.Document().Encode(w)
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

// litmusDocument runs the litmus suite or enumeration.
func (r *Request) litmusDocument() (*litmus.Document, error) {
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
	opts := litmus.Options{Budget: r.Budget, MaxSchedules: r.MaxSchedules}
	if r.Enumerate {
		return litmus.EnumerateDocument(configs, r.K, opts), nil
	}
	return litmus.SuiteDocument(tests, configs, opts)
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
