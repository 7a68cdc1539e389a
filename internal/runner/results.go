// JSON result schema. A sweep serializes to a Document: the figures it
// regenerated (normalized stacked bars), plus one RunRecord per cell with
// the raw cycle count, stall breakdown, traffic classes, global-operation
// counts, and host wall time. The document is machine-readable so CI can
// assert the paper's config-vs-config shapes (internal/shapecheck) instead
// of trusting eyeballed tables.
//
// Canonical form: Encode strips host wall times (the only
// nondeterministic field), so serial and parallel sweeps of the same
// experiment produce byte-identical output. EncodeTiming keeps them.

package runner

import (
	"encoding/json"
	"errors"
	"io"

	"repro/internal/envelope"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Document is the machine-readable outcome of one or more sweeps. The
// envelope pair (schema, kind) is defined once in internal/envelope.
type Document struct {
	// Schema is envelope.SchemaV2.
	Schema string `json:"schema"`
	// Kind is envelope.KindResults.
	Kind envelope.Kind `json:"kind,omitempty"`
	// Scale names the problem scale the sweep ran at ("test", "bench").
	Scale string `json:"scale"`
	// Suite names what ran: "intra", "inter", or "all".
	Suite string `json:"suite"`
	// Figures are the regenerated paper figures, each bar's Total
	// filled from its height.
	Figures []stats.Figure `json:"figures"`
	// Runs holds one record per sweep cell, in task order.
	Runs []RunRecord `json:"runs"`
}

// RunRecord is one cell's raw metrics.
type RunRecord struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	// Cycles is the simulated parallel execution time.
	Cycles int64 `json:"cycles,omitempty"`
	// Stalls is the cycle breakdown by stall category, summed over
	// threads.
	Stalls map[string]int64 `json:"stalls,omitempty"`
	// Traffic is the flit count by traffic class.
	Traffic map[string]int64 `json:"traffic,omitempty"`
	// GlobalWB and GlobalINV are the global line-operation counts
	// (inter-block runs only).
	GlobalWB  int64 `json:"global_wb,omitempty"`
	GlobalINV int64 `json:"global_inv,omitempty"`
	// WallMS is the host wall-clock time of the run in milliseconds. It
	// is the only nondeterministic field and is stripped by Encode.
	WallMS float64 `json:"wall_ms,omitempty"`
	// Error is the cell's failure, if any; ErrorKind classifies it
	// (panic, timeout, livelock, coherence, nil-outcome, canceled,
	// error).
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	// Repro is the shrunk litmus-DSL reproduction of a fuzz-repro
	// failure, making the record a self-contained regression test.
	Repro string `json:"repro,omitempty"`
	// Metrics is the cell's observability snapshot when the sweep ran
	// with metrics enabled. It is deterministic (all values are
	// simulation-derived) and therefore survives canonical encoding.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// FigureByID returns the document's figure with the given ID, or nil.
func (d *Document) FigureByID(id string) *stats.Figure {
	for i := range d.Figures {
		if d.Figures[i].ID == id {
			return &d.Figures[i]
		}
	}
	return nil
}

// Records converts the grid's cells to run records in task order.
func (g *Grid) Records() []RunRecord {
	recs := make([]RunRecord, 0, len(g.cells))
	for i := range g.cells {
		c := &g.cells[i]
		rec := RunRecord{
			Workload: c.Workload,
			Config:   c.Config,
			WallMS:   float64(c.Wall.Microseconds()) / 1000,
		}
		if c.Err != nil {
			rec.Error = c.Err.Error()
			rec.ErrorKind = ErrorKind(c.Err)
			var re *ReproError
			if errors.As(c.Err, &re) {
				rec.Repro = re.Repro
			}
		}
		if c.Outcome != nil {
			rec.GlobalWB, rec.GlobalINV = c.Outcome.GlobalWB, c.Outcome.GlobalINV
			rec.Metrics = c.Outcome.Metrics
			if r := c.Outcome.Result; r != nil {
				rec.Cycles = r.Cycles
				rec.Stalls = make(map[string]int64, int(stats.NumStallKinds))
				for k := stats.StallKind(0); k < stats.NumStallKinds; k++ {
					if v := r.Stalls[k]; v != 0 {
						rec.Stalls[k.String()] = v
					}
				}
				rec.Traffic = make(map[string]int64, int(stats.NumTrafficClasses))
				for cl := stats.TrafficClass(0); cl < stats.NumTrafficClasses; cl++ {
					if v := r.Traffic[cl]; v != 0 {
						rec.Traffic[cl.String()] = v
					}
				}
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// Merge combines documents into one (suite "all"): figures and runs are
// concatenated in argument order; scale is taken from the first document.
func Merge(docs ...*Document) *Document {
	out := &Document{Schema: envelope.SchemaV2, Kind: envelope.KindResults, Suite: "all"}
	for i, d := range docs {
		if i == 0 {
			out.Scale = d.Scale
		}
		out.Figures = append(out.Figures, d.Figures...)
		out.Runs = append(out.Runs, d.Runs...)
	}
	return out
}

// Encode writes the document as indented canonical JSON: host wall times
// are stripped, so serial and parallel sweeps of the same experiment emit
// byte-identical output. The original document is not modified.
func (d *Document) Encode(w io.Writer) error {
	canon := *d
	canon.Runs = StripWalls(d.Runs)
	return envelope.Encode(w, &canon)
}

// StripWalls returns a copy of runs with host wall times zeroed, the
// canonical form the documents encode.
func StripWalls(runs []RunRecord) []RunRecord {
	canon := make([]RunRecord, len(runs))
	copy(canon, runs)
	for i := range canon {
		canon[i].WallMS = 0
	}
	return canon
}

// EncodeTiming writes the document with host wall times included; the
// output is not deterministic across runs.
func (d *Document) EncodeTiming(w io.Writer) error { return envelope.Encode(w, d) }

// Decode reads a document produced by Encode or EncodeTiming.
func Decode(r io.Reader) (*Document, error) {
	var d Document
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}
