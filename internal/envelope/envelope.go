// Package envelope is the single definition of the hic/v2 JSON envelope:
// every machine-readable artifact the tools emit — sweep results, litmus
// documents, the storage report, fuzz campaign reports — carries
// {"schema": "hic/v2", "kind": "..."} so consumers dispatch on one field
// pair instead of per-tool schema strings. Encode is the one writer of
// those documents and of the server's JSON replies.
//
// The server (internal/serve), the shape checker, and all the cmds share
// these definitions.
package envelope

import (
	"encoding/json"
	"io"
)

// SchemaV2 is the unified versioned envelope identifier.
const SchemaV2 = "hic/v2"

// Kind discriminates the document kinds of the hic/v2 envelope.
type Kind string

const (
	// KindResults is a sweep results document (runner.Document).
	KindResults Kind = "results"
	// KindLitmus is a litmus-test document (litmus.Document).
	KindLitmus Kind = "litmus"
	// KindStorage is the Section VII-A storage report (overhead.Document).
	KindStorage Kind = "storage"
	// KindFuzz is the annotation-mutation fuzz campaign report
	// (internal/fuzzgen).
	KindFuzz Kind = "fuzz"
)

// MetricsV1 identifies the metrics snapshot format (unchanged under v2:
// snapshots embed it even inside v2 result documents).
const MetricsV1 = "hic-metrics/v1"

// Encode writes v as JSON indented by two spaces, with a trailing
// newline: the canonical wire form of every document and server reply.
func Encode(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
