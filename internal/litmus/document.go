// The machine-readable document of a litmus run, which hicsim and the
// sweep server both compute through serve.Request, so both emit
// byte-identical JSON for the same exploration.

package litmus

import (
	"encoding/json"
	"io"

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

// SuiteDocument explores every test under every configuration and
// collects the verdicts and reports. The returned error covers harness
// failures only; failed verdicts are data (see Failed).
func SuiteDocument(tests []Test, configs []Config, opts Options) (*Document, error) {
	doc := &Document{Schema: envelope.SchemaV2, Kind: envelope.KindLitmus, Budget: opts.Budget}
	for _, t := range tests {
		for _, cfg := range configs {
			v, rep, err := Run(t, cfg, opts)
			if err != nil {
				return nil, err
			}
			doc.Results = append(doc.Results, SuiteResult{Verdict: v, Report: rep})
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
// every configuration.
func EnumerateDocument(configs []Config, k int, opts Options) *Document {
	doc := &Document{Schema: envelope.SchemaV2, Kind: envelope.KindLitmus, Budget: opts.Budget}
	tests := Enumerate(DefaultEnumOptions(k))
	for _, cfg := range configs {
		doc.Sweeps = append(doc.Sweeps, SweepResult{
			Config: cfg.Name, K: k, Stats: Sweep(tests, cfg, opts),
		})
	}
	return doc
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
func (d *Document) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
