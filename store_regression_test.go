package hic

// Regression gate for the paged backing store: the whole-simulator output
// must not depend on which mem.Memory implementation backs the hierarchy.
// The intra-block sweep runs once on the paged store and once on the
// retained map-based oracle store, and the canonical hic/v2 results
// documents must be byte-identical. Any divergence — a footprint
// miscount, a word read back differently, a latency perturbed by store
// behavior — fails here with the first differing byte in view.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/mem"
)

func TestPagedAndOracleStoresEmitIdenticalJSON(t *testing.T) {
	// Under -short, cover a representative subset instead of simulating
	// the full sweep twice: a barrier-heavy app, a lock-heavy one, and a
	// producer/consumer one still exercise every store-visible path
	// (line fills, writebacks, footprint accounting) at a fraction of
	// the wall clock.
	opts := RunOptions{Parallel: 4}
	if testing.Short() {
		ws := IntraWorkloads(ScaleTest)
		for _, w := range ws[:3] {
			opts.Only = append(opts.Only, w.Name)
		}
	}
	run := func(oracle bool) []byte {
		mem.UseOracleStore(oracle)
		defer mem.UseOracleStore(false)
		res, err := runIntraOpts(context.Background(), ScaleTest, opts)
		if err != nil {
			t.Fatal(err)
		}
		return encodeDoc(t, res.Document(ScaleTest))
	}
	paged := run(false)
	oracle := run(true)
	if !bytes.Equal(paged, oracle) {
		i := 0
		for i < len(paged) && i < len(oracle) && paged[i] == oracle[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		clip := func(b []byte) string {
			if hi > len(b) {
				return string(b[lo:])
			}
			return string(b[lo:hi])
		}
		t.Errorf("paged and oracle store JSON diverge at byte %d:\npaged:  …%s…\noracle: …%s…",
			i, clip(paged), clip(oracle))
	}
}
