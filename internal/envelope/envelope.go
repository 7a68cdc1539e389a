// Package envelope is the single definition of the hic/v2 JSON envelope:
// every machine-readable artifact the tools emit — sweep results, litmus
// documents, metrics snapshots, the storage report, fuzz campaign
// reports — carries {"schema": "hic/v2", "kind": "..."} so consumers
// dispatch on one field pair instead of per-tool schema strings.
//
// The server (internal/serve), the shape checker, and all the cmds share
// these definitions.
package envelope

// SchemaV2 is the unified versioned envelope identifier.
const SchemaV2 = "hic/v2"

// Kind discriminates the document kinds of the hic/v2 envelope.
type Kind string

const (
	// KindResults is a sweep results document (runner.Document).
	KindResults Kind = "results"
	// KindLitmus is a litmus-test document (litmus.Document).
	KindLitmus Kind = "litmus"
	// KindMetrics is a standalone observability snapshot (internal/obs).
	KindMetrics Kind = "metrics"
	// KindStorage is the Section VII-A storage report (overhead.Document).
	KindStorage Kind = "storage"
	// KindFuzz is the annotation-mutation fuzz campaign report
	// (internal/fuzzgen).
	KindFuzz Kind = "fuzz"
)

// String returns the kind's JSON spelling.
func (k Kind) String() string { return string(k) }

// MetricsV1 identifies the metrics snapshot format (unchanged under v2:
// snapshots embed it even inside v2 result documents).
const MetricsV1 = "hic-metrics/v1"
