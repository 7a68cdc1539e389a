// The machine-readable document of the storage comparison, shared by
// the overhead CLI and the sweep server.

package overhead

import (
	"io"

	"repro/internal/envelope"
)

// Document is the machine-readable storage comparison (schema hic/v2,
// kind "storage"). It has no v1 layout: the storage kind postdates the
// v2 envelope.
type Document struct {
	Schema         string        `json:"schema"`
	Kind           envelope.Kind `json:"kind"`
	Coherent       []Item        `json:"coherent"`
	Incoherent     []Item        `json:"incoherent"`
	CoherentBits   Bits          `json:"coherent_bits"`
	IncoherentBits Bits          `json:"incoherent_bits"`
	SavingsBits    Bits          `json:"savings_bits"`
	SavingsKB      float64       `json:"savings_kb"`
}

// Document converts the report to its wire form.
func (r *Report) Document() *Document {
	return &Document{
		Schema:         envelope.SchemaV2,
		Kind:           envelope.KindStorage,
		Coherent:       r.Coherent,
		Incoherent:     r.Incoherent,
		CoherentBits:   r.CoherentTotal(),
		IncoherentBits: r.IncoherentTotal(),
		SavingsBits:    r.Savings(),
		SavingsKB:      r.Savings().KB(),
	}
}

// Encode writes the document as indented JSON with a trailing newline,
// the canonical wire form shared by the CLI and the server.
func (d *Document) Encode(w io.Writer) error { return envelope.Encode(w, d) }
