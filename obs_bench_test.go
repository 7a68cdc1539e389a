package hic

// BenchmarkObsOverhead pins the observability layer's cost contract on a
// real workload:
//
//	off     — no recorder attached: the instrumented hot paths execute
//	          only their pointer-is-nil tests. This variant must track
//	          the pre-instrumentation baseline (the CI overhead-guard
//	          job fails a PR that slows BenchmarkRunIntraBlock by more
//	          than 2%, and this bench localizes such a regression).
//	metrics — recorder with totals/high-water marks only (the -metrics
//	          configuration): hook cost without timeline storage.
//	trace   — full bounded timelines (the -trace-chrome configuration).

import (
	"testing"
)

func BenchmarkObsOverhead(b *testing.B) {
	wl := IntraWorkloads(ScaleTest)[0]
	variants := []struct {
		name string
		opts []Option
	}{
		{"off", nil},
		{"metrics", []Option{WithMetrics(), WithObserver(func(_, _ string, rec *Recorder) {
			if rec.Snapshot() == nil {
				b.Fatal("nil snapshot from enabled recorder")
			}
		})}},
		{"trace", []Option{WithTracing(), WithObserver(func(_, _ string, rec *Recorder) {
			if rec.TraceData() == nil {
				b.Fatal("nil trace from enabled recorder")
			}
		})}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := NewHierarchy(NewIntraMachine(), BMI)
				if _, err := Run(h, wl.Guests(BMI), v.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
