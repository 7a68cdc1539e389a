package nas

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

func runAllModes(t *testing.T, mk func() *compiler.IRWorkload) {
	t.Helper()
	for _, mode := range compiler.Modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			w := mk()
			if _, err := w.Run(hierFor(mode), mode); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEP(t *testing.T) { runAllModes(t, func() *compiler.IRWorkload { return EP(Test, 32) }) }
func TestIS(t *testing.T) { runAllModes(t, func() *compiler.IRWorkload { return IS(Test, 32) }) }
func TestCG(t *testing.T) { runAllModes(t, func() *compiler.IRWorkload { return CG(Test, 32) }) }

// The Figure 11 mechanism: CG's level-adaptive INVs drop below Addr's
// global INVs (some matrix columns are block-local), while its global WBs
// stay put (the producer writes everything to L3, Section V-A.2).
func TestCGGlobalOpShape(t *testing.T) {
	run := func(mode compiler.Mode) (wb, inv int64) {
		h := hierFor(mode).(*core.Hierarchy)
		if _, err := CG(Test, 32).Run(h, mode); err != nil {
			t.Fatal(err)
		}
		return h.GlobalOps()
	}
	wbAddr, invAddr := run(compiler.ModeAddr)
	wbAdpt, invAdpt := run(compiler.ModeAddrL)
	if invAdpt >= invAddr {
		t.Errorf("CG global INVs: Addr+L %d not below Addr %d", invAdpt, invAddr)
	}
	if invAdpt == 0 {
		t.Error("CG should retain some global INVs (far columns cross blocks)")
	}
	ratio := float64(wbAdpt) / float64(wbAddr)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("CG global WBs should be ~unchanged: Addr+L %d vs Addr %d", wbAdpt, wbAddr)
	}
}

// EP and IS communicate through reductions: level-adaptive instructions
// bring (almost) no reduction in global operations.
func TestEPISGlobalOpShape(t *testing.T) {
	for _, mk := range []func() *compiler.IRWorkload{
		func() *compiler.IRWorkload { return EP(Test, 32) },
		func() *compiler.IRWorkload { return IS(Test, 32) },
	} {
		run := func(mode compiler.Mode) (wb, inv int64) {
			h := hierFor(mode).(*core.Hierarchy)
			w := mk()
			if _, err := w.Run(h, mode); err != nil {
				t.Fatal(err)
			}
			return h.GlobalOps()
		}
		wbAddr, invAddr := run(compiler.ModeAddr)
		wbAdpt, invAdpt := run(compiler.ModeAddrL)
		name := mk().Name
		if float64(wbAdpt) < 0.9*float64(wbAddr) {
			t.Errorf("%s: global WBs dropped too much under Addr+L: %d vs %d", name, wbAdpt, wbAddr)
		}
		if float64(invAdpt) < 0.75*float64(invAddr) {
			t.Errorf("%s: global INVs dropped too much under Addr+L: %d vs %d", name, invAdpt, invAddr)
		}
	}
}

func TestEPHier(t *testing.T) {
	runAllModes(t, func() *compiler.IRWorkload { return EPHier(Test, 32, 4) })
}

// The hierarchical rewrite must both compute the same histogram shape and
// slash global operations relative to the flat reduction under Addr+L.
func TestEPHierReducesGlobalOps(t *testing.T) {
	run := func(mk func() *compiler.IRWorkload) (wb, inv int64) {
		h := hierFor(compiler.ModeAddrL).(*core.Hierarchy)
		if _, err := mk().Run(h, compiler.ModeAddrL); err != nil {
			t.Fatal(err)
		}
		return h.GlobalOps()
	}
	wbFlat, invFlat := run(func() *compiler.IRWorkload { return EP(Test, 32) })
	wbHier, invHier := run(func() *compiler.IRWorkload { return EPHier(Test, 32, 4) })
	if wbHier >= wbFlat {
		t.Errorf("hierarchical EP global WBs %d not below flat %d", wbHier, wbFlat)
	}
	if invHier >= invFlat {
		t.Errorf("hierarchical EP global INVs %d not below flat %d", invHier, invFlat)
	}
}
