package splash

import (
	"testing"

	"repro/internal/annotate"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mesi"
	"repro/internal/topo"
	"repro/internal/workload"
)

func hierarchyFor(cfg annotate.Config) engine.Hierarchy {
	m := topo.NewIntraBlock()
	if cfg.HCC {
		return mesi.New(m, mesi.DefaultConfig(m))
	}
	c := core.DefaultConfig(m)
	c.WriteThrough = cfg.WriteThrough
	if cfg.UseMEB {
		c.MEBEntries = 16
	}
	if cfg.UseIEB {
		c.IEBEntries = 4
	}
	return core.New(m, c)
}

// runAll verifies a workload under every Table II configuration.
func runAll(t *testing.T, w *workload.Workload) {
	t.Helper()
	for _, cfg := range annotate.IntraConfigs {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			h := hierarchyFor(cfg)
			if _, err := w.Run(h, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFFT(t *testing.T)          { runAll(t, FFT(Test, 16)) }
func TestLUCont(t *testing.T)       { runAll(t, LU(Test, 16, true)) }
func TestLUNonCont(t *testing.T)    { runAll(t, LU(Test, 16, false)) }
func TestCholesky(t *testing.T)     { runAll(t, Cholesky(Test, 16)) }
func TestBarnes(t *testing.T)       { runAll(t, Barnes(Test, 16)) }
func TestRaytrace(t *testing.T)     { runAll(t, Raytrace(Test, 16)) }
func TestVolrend(t *testing.T)      { runAll(t, Volrend(Test, 16)) }
func TestOceanCont(t *testing.T)    { runAll(t, Ocean(Test, 16, true)) }
func TestOceanNonCont(t *testing.T) { runAll(t, Ocean(Test, 16, false)) }
func TestWaterNsq(t *testing.T)     { runAll(t, Water(Test, 16, false)) }
func TestWaterSp(t *testing.T)      { runAll(t, Water(Test, 16, true)) }

// all returns the eleven application variants (Figure 9's x-axis).
func all(sz Size, threads int) []*workload.Workload {
	return []*workload.Workload{
		FFT(sz, threads),
		LU(sz, threads, true),
		LU(sz, threads, false),
		Cholesky(sz, threads),
		Barnes(sz, threads),
		Raytrace(sz, threads),
		Volrend(sz, threads),
		Ocean(sz, threads, true),
		Ocean(sz, threads, false),
		Water(sz, threads, false),
		Water(sz, threads, true),
	}
}

func TestAllRegistry(t *testing.T) {
	ws := all(Test, 16)
	if len(ws) != 11 {
		t.Fatalf("registry has %d workloads, want 11", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		if names[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		names[w.Name] = true
		if len(w.Main) == 0 {
			t.Errorf("%s: no Table I main pattern declared", w.Name)
		}
	}
}

func TestFFTFewThreads(t *testing.T) {
	w := FFT(Test, 4)
	h := hierarchyFor(annotate.Base)
	if _, err := w.Run(h, annotate.Base); err != nil {
		t.Fatal(err)
	}
}

// Every workload must also verify under the write-through extension
// configuration: stores self-downgrade continuously, no WBs are inserted,
// and correctness must still hold through INV alone.
func TestAllUnderWriteThrough(t *testing.T) {
	for _, w := range all(Test, 16) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			h := hierarchyFor(annotate.WT)
			if _, err := w.Run(h, annotate.WT); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Every workload must also verify under the Bloom-signature extension:
// critical-section invalidation becomes selective, everything else keeps
// the Base annotations.
func TestAllUnderBloomSignatures(t *testing.T) {
	for _, w := range all(Test, 16) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			m := topo.NewIntraBlock()
			c := core.DefaultConfig(m)
			c.Bloom = true
			h := core.New(m, c)
			if _, err := w.Run(h, annotate.BloomSig); err != nil {
				t.Fatal(err)
			}
		})
	}
}
