package engine

import (
	"testing"

	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/mesi"
	"repro/internal/topo"
)

// TestStateFingerprintMesi: the MESI hierarchy fingerprints itself, so
// StateFingerprint is available on an HCC engine, and the hash follows
// the L1: filling a line and then dirtying it each change the state.
func TestStateFingerprintMesi(t *testing.T) {
	m := topo.NewCustom(1, 2, 0, topo.DefaultParams())
	h := mesi.New(m, levels.DefaultConfig(m))
	e := New(h, []Guest{func(Proc) {}, func(Proc) {}})
	empty, ok := e.StateFingerprint()
	if !ok {
		t.Fatal("StateFingerprint not available on a MESI-backed engine")
	}
	x := mem.Addr(0x1000)
	h.Load(0, x)
	filled, ok := e.StateFingerprint()
	if !ok || filled == empty {
		t.Fatalf("filling core 0's L1 left the fingerprint at %#x (ok=%v)", filled, ok)
	}
	h.Store(0, x, 7)
	dirtied, ok := e.StateFingerprint()
	if !ok || dirtied == filled {
		t.Fatalf("storing to core 0's L1 line left the fingerprint at %#x (ok=%v)", dirtied, ok)
	}
	if again, _ := e.StateFingerprint(); again != dirtied {
		t.Fatalf("fingerprint of an unchanged state moved: %#x then %#x", dirtied, again)
	}
}
