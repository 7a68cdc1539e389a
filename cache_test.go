package hic

// Sweep-level cache behavior: the content address must be invariant
// under orchestration choices (worker count, timeouts, option spelling
// order) and sensitive to everything that can change a cell's bytes,
// and a cache-backed rerun must serve every cell from the cache while
// producing a document byte-identical to an uncached sweep.

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func intraKeyHash(o RunOptions) string {
	return o.cellKey(ScaleTest, "intra", "fft", "B+M+I").Hash()
}

func TestCacheKeyIgnoresOrchestration(t *testing.T) {
	ref := intraKeyHash(NewRunOptions(WithMetrics(), WithCoherenceCheck()))
	same := map[string]RunOptions{
		"serial":         NewRunOptions(WithMetrics(), WithCoherenceCheck(), WithParallel(1)),
		"eight workers":  NewRunOptions(WithMetrics(), WithCoherenceCheck(), WithParallel(8)),
		"timeout":        NewRunOptions(WithMetrics(), WithCoherenceCheck(), WithTimeout(time.Minute)),
		"reversed order": NewRunOptions(WithCoherenceCheck(), WithMetrics()),
		"only filter":    NewRunOptions(WithMetrics(), WithCoherenceCheck(), WithOnly("fft")),
	}
	for name, o := range same {
		if got := intraKeyHash(o); got != ref {
			t.Errorf("%s: orchestration perturbed the cell key (%s vs %s)", name, got, ref)
		}
	}
	diff := map[string]RunOptions{
		"fault plan": NewRunOptions(WithMetrics(), WithCoherenceCheck(), WithFaultPlan("drop-wb@3")),
		"seed":       NewRunOptions(WithMetrics(), WithCoherenceCheck(), WithSeed(7)),
		"no metrics": NewRunOptions(WithCoherenceCheck()),
	}
	for name, o := range diff {
		if got := intraKeyHash(o); got == ref {
			t.Errorf("%s: result-affecting option did not move the cell key", name)
		}
	}
}

// TestObserverAloneSharesPlainCellKey: an Observer without Metrics
// attaches a recorder but embeds no snapshot, and recording never
// changes results, so an observed cell computes the plain cell's bytes
// and must share its address. Metrics does change the record (it embeds
// the snapshot), so its key must still differ.
func TestObserverAloneSharesPlainCellKey(t *testing.T) {
	plain := intraKeyHash(NewRunOptions())
	observed := intraKeyHash(NewRunOptions(WithObserver(func(string, string, *Recorder) {})))
	if plain != observed {
		t.Error("Observer-only options moved the cell key off the plain one")
	}
	withMetrics := intraKeyHash(NewRunOptions(WithMetrics()))
	if observed == withMetrics {
		t.Error("Observer-only and Metrics options share a cell key (snapshots differ)")
	}
}

func encodeIntra(t *testing.T, r *IntraResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Document(ScaleTest).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCachedSweepIsByteExactWithZeroMisses runs the same restricted
// intra sweep three times: uncached (the reference), cold through a
// cache (populates it), and warm through the same cache. The warm run
// must hit on every cell — zero engine work — and all three documents
// must be byte-identical.
func TestCachedSweepIsByteExactWithZeroMisses(t *testing.T) {
	ctx := context.Background()
	only := WithOnly("fft")
	ref, err := RunIntra(ctx, ScaleTest, only)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeIntra(t, ref)

	c := NewMemCache()
	cold, err := RunIntra(ctx, ScaleTest, only, WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	cells := int64(len(cold.Runs))
	if c.Hits() != 0 || c.Misses() != cells || int64(c.Len()) != cells {
		t.Fatalf("cold run: hits=%d misses=%d len=%d, want 0/%d/%d",
			c.Hits(), c.Misses(), c.Len(), cells, cells)
	}
	if got := encodeIntra(t, cold); !bytes.Equal(got, want) {
		t.Error("cold cached sweep differs from uncached reference")
	}

	warm, err := RunIntra(ctx, ScaleTest, only, WithCache(c), WithParallel(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Hits() != cells || c.Misses() != cells {
		t.Fatalf("warm run: hits=%d misses=%d, want %d/%d (every cell served from cache)",
			c.Hits(), c.Misses(), cells, cells)
	}
	if got := encodeIntra(t, warm); !bytes.Equal(got, want) {
		t.Error("warm cached sweep differs from uncached reference")
	}
}

// TestCacheSeparatesSweeps: inter cells must never collide with intra
// cells, and a fault-injected sweep must not be served clean bytes.
func TestCacheSeparatesSweeps(t *testing.T) {
	ctx := context.Background()
	c := NewMemCache()
	if _, err := RunInter(ctx, ScaleTest, WithOnly("ep"), WithCache(c)); err != nil {
		t.Fatal(err)
	}
	after := c.Len()
	if after == 0 {
		t.Fatal("inter sweep cached nothing")
	}
	if _, err := RunIntra(ctx, ScaleTest, WithOnly("fft"), WithCache(c)); err != nil {
		t.Fatal(err)
	}
	if c.Hits() != 0 {
		t.Errorf("intra sweep hit %d inter entries", c.Hits())
	}
}
