// The machine-readable document of a litmus run, which hicsim and the
// sweep server both compute through serve.Request, so both emit
// byte-identical JSON for the same exploration.

package litmus

import (
	"context"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/envelope"
)

// SuiteResult pairs one exploration's verdict with its full report.
type SuiteResult struct {
	Verdict Verdict `json:"verdict"`
	Report  *Report `json:"report"`
}

// SweepResult is one enumeration sweep under one configuration.
type SweepResult struct {
	Config string     `json:"config"`
	K      int        `json:"k"`
	Stats  SweepStats `json:"stats"`
}

// Document is the machine-readable outcome of a litmus run, in
// suite-then-config order, in the hic/v2 envelope with kind "litmus".
// Exactly one of Results (suite mode) and Sweeps (enumeration) is
// populated. The document is canonical: fixed key order, sorted outcome
// maps, no timestamps — byte-identical across runs.
type Document struct {
	Schema  string        `json:"schema"`
	Kind    envelope.Kind `json:"kind,omitempty"`
	Budget  int           `json:"budget"`
	Results []SuiteResult `json:"results,omitempty"`
	Sweeps  []SweepResult `json:"sweeps,omitempty"`
}

// SuiteDocument explores every test under every configuration across
// workers goroutines (0 means GOMAXPROCS) and collects the verdicts and
// reports in test-then-config order. The returned error covers harness
// failures and cancellation only: it stops between explorations once
// ctx is done and returns its error. Failed verdicts are data (see
// Failed).
func SuiteDocument(ctx context.Context, tests []Test, configs []Config, opts Options, workers int) (*Document, error) {
	doc := &Document{Schema: envelope.SchemaV2, Kind: envelope.KindLitmus, Budget: opts.Budget}
	doc.Results = make([]SuiteResult, len(tests)*len(configs))
	errs := make([]error, len(doc.Results))
	err := forEach(ctx, len(doc.Results), workers, func(i int) {
		v, rep, err := Run(tests[i/len(configs)], configs[i%len(configs)], opts)
		doc.Results[i], errs[i] = SuiteResult{Verdict: v, Report: rep}, err
	})
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// DefaultEnumOptions is the enumeration shape the CLI and server sweep:
// every litmus shape up to k ops across 3 threads, DMA and packed
// variants included, one lock, barriers on.
func DefaultEnumOptions(k int) EnumOptions {
	return EnumOptions{MaxOps: k, MaxThreads: 3, DMA: true, Packed: true, Locks: 1, Barriers: true}
}

// EnumerateDocument runs the systematic enumeration up to k ops under
// every configuration, exploring the programs across workers goroutines
// (0 means GOMAXPROCS). It stops between programs once ctx is done and
// returns its error.
func EnumerateDocument(ctx context.Context, configs []Config, k int, opts Options, workers int) (*Document, error) {
	doc := &Document{Schema: envelope.SchemaV2, Kind: envelope.KindLitmus, Budget: opts.Budget}
	tests := Enumerate(DefaultEnumOptions(k))
	for _, cfg := range configs {
		st, err := Sweep(ctx, tests, cfg, opts, workers)
		if err != nil {
			return nil, err
		}
		doc.Sweeps = append(doc.Sweeps, SweepResult{Config: cfg.Name, K: k, Stats: st})
	}
	return doc, nil
}

// forEach calls f(i) for every i in [0, n) across workers goroutines (0
// means GOMAXPROCS; 1 runs them in order). Workers take the next index
// as they free up; f must write only its own index's slot. forEach
// stops handing out indices once ctx is done and then returns ctx's
// error.
func forEach(ctx context.Context, n, workers int, f func(i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// Failed reports whether any verdict failed or any enumeration sweep
// found a violating or non-exhaustive program.
func (d *Document) Failed() bool {
	for _, r := range d.Results {
		if !r.Verdict.OK {
			return true
		}
	}
	for _, s := range d.Sweeps {
		if len(s.Stats.Violating) > 0 || len(s.Stats.Failed) > 0 {
			return true
		}
	}
	return false
}

// Encode writes the document as indented JSON with a trailing newline,
// the canonical wire form shared by the CLI and the server.
func (d *Document) Encode(w io.Writer) error { return envelope.Encode(w, d) }
