package jacobi

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/levels"
	"repro/internal/mesi"
	"repro/internal/topo"
)

func hierFor(mode compiler.Mode) engine.Hierarchy {
	m := topo.NewInterBlock()
	if mode == compiler.ModeHCC {
		return mesi.New(m, levels.DefaultConfig(m))
	}
	return core.New(m, core.Config{Config: levels.DefaultConfig(m)})
}

func TestJacobiAllModes(t *testing.T) {
	for _, mode := range compiler.Modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			w := New(Test, 32)
			if _, err := w.Run(hierFor(mode), mode); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Jacobi is the paper's showcase for level-adaptive instructions: most
// neighbor exchanges stay inside a block, so Addr+L's global operations
// drop well below Addr's (Figure 11 reports ~25% remaining).
func TestJacobiGlobalOpsDropSharply(t *testing.T) {
	run := func(mode compiler.Mode) (wb, inv int64) {
		h := hierFor(mode).(*core.Hierarchy)
		if _, err := New(Test, 32).Run(h, mode); err != nil {
			t.Fatal(err)
		}
		return h.GlobalOps()
	}
	wbAddr, invAddr := run(compiler.ModeAddr)
	wbAdpt, invAdpt := run(compiler.ModeAddrL)
	if f := float64(wbAdpt) / float64(wbAddr); f > 0.6 {
		t.Errorf("global WB fraction remaining = %.2f, want well below 0.6 (%d vs %d)", f, wbAdpt, wbAddr)
	}
	if f := float64(invAdpt) / float64(invAddr); f > 0.6 {
		t.Errorf("global INV fraction remaining = %.2f, want well below 0.6 (%d vs %d)", f, invAdpt, invAddr)
	}
}

// The same annotated binary must run correctly under a different
// thread-to-block mapping (Section V-B's portability requirement).
func TestJacobiUnderShuffledThreadMap(t *testing.T) {
	m := topo.NewInterBlock()
	h := core.New(m, core.Config{Config: levels.DefaultConfig(m)})
	// Reverse the mapping: thread t runs conceptually in block 3-t/8.
	// (Threads still execute on their cores; the ThreadMap is what the
	// level-adaptive hardware consults, so a wrong map that still covers
	// reality differently exercises the global fallback paths.)
	for t2 := 0; t2 < 32; t2++ {
		h.MapThread(t2, m.BlockOf(t2))
	}
	w := New(Test, 32)
	if _, err := w.Run(h, compiler.ModeAddrL); err != nil {
		t.Fatal(err)
	}
}
