package hic

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/annotate"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/nas"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mem"
)

// TestAblationClaims is the source of every number in EXPERIMENTS.md's
// "Ablations and extensions": the Section VII-B/VII-C ablations and the
// Section VIII alternatives. Each claim computes its table once, at the
// bench-scale inputs the document quotes, and asserts both the claimed
// shape (where the knee sits, which configuration wins, where a curve
// rises) and the quoted numbers. The simulator is deterministic, so the
// numbers are exact: a change that moves one must update EXPERIMENTS.md
// with it.
func TestAblationClaims(t *testing.T) {
	for _, c := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"meb-size", claimMEBSize},
		{"ieb-size", claimIEBSize},
		{"dirty-granularity", claimDirtyGranularity},
		{"hierarchical-reduction", claimHierarchicalReduction},
		{"write-through", claimWriteThrough},
		{"bloom", claimBloom},
		{"dma", claimDMA},
		{"block-scaling", claimBlockScaling},
	} {
		t.Run(c.name, c.check)
	}
}

// pinTable fails t unless the computed table equals the quoted one.
func pinTable[R comparable](t *testing.T, got, want []R) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("table moved:\n got %+v\nwant %+v", got, want)
	}
}

// frac4 renders a fraction the way EXPERIMENTS.md quotes it.
func frac4(num, den int64) string { return fmt.Sprintf("%.4f", ratio(float64(num), float64(den))) }

// runCS runs 16 threads of app under B+M+I annotations on an intra-block
// machine whose hierarchy has the given entry-buffer sizes.
func runCS(t *testing.T, mebEntries, iebEntries int, app func(p *annotate.P)) (*Result, *core.Hierarchy) {
	t.Helper()
	m := NewIntraMachine()
	h := core.New(m, core.Config{Config: scaledCacheConfig(m), MEBEntries: mebEntries, IEBEntries: iebEntries})
	r, err := Run(h, annotate.Guests(16, annotate.BMI, annotate.Pattern{}, app))
	if err != nil {
		t.Fatal(err)
	}
	return r, h
}

// claimMEBSize: a critical section that writes 12 private lines and one
// shared line per epoch overflows every MEB smaller than its 13-line write
// set, so each WB ALL falls back to a full tag traversal. At 16 entries
// (the paper's choice) the MEB serves every WB ALL; larger buffers add
// nothing.
func claimMEBSize(t *testing.T) {
	type row struct {
		entries                   int
		fallbacks, served, cycles int64
	}
	app := func(p *annotate.P) {
		shared := mem.Addr(0x10000)
		priv := mem.Addr(0x100000 + p.ID()*0x4000)
		for k := 0; k < 8; k++ {
			p.CSEnter(1)
			for l := 0; l < 2; l++ {
				p.Load(shared + mem.Addr(l*mem.LineBytes))
			}
			for l := 0; l < 12; l++ {
				p.Store(priv+mem.Addr(l*mem.LineBytes), mem.Word(k))
			}
			p.Store(shared, mem.Word(k))
			p.CSExit(1)
			p.Compute(200)
		}
		p.Barrier(0)
	}
	var got []row
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		r, h := runCS(t, n, 4, app)
		got = append(got, row{n, h.Counters().Get("meb.fallback"), h.Counters().Get("meb.served"), r.Cycles})
	}
	for _, r := range got {
		if overflow := r.entries < 13; overflow != (r.fallbacks > 0 && r.served == 0) || !overflow && r.fallbacks != 0 {
			t.Errorf("%d entries: %d fallbacks, %d served; want every WB ALL to fall back below 13 entries and none to at or above", r.entries, r.fallbacks, r.served)
		}
	}
	pinTable(t, got, []row{
		{2, 128, 0, 97520}, {4, 128, 0, 97520}, {8, 128, 0, 97520},
		{16, 0, 128, 66416}, {32, 0, 128, 66416}, {64, 0, 128, 66416},
	})
}

// claimIEBSize: a critical section that reads a 6-line shared region twice
// evicts from every IEB smaller than its read set and pays an unnecessary
// invalidation and miss on the second pass. The knee sits at the section's
// footprint: 8 entries cover it and every larger buffer runs as fast.
func claimIEBSize(t *testing.T) {
	type row struct {
		entries           int
		evictions, cycles int64
	}
	app := func(p *annotate.P) {
		for k := 0; k < 8; k++ {
			p.CSEnter(1)
			for pass := 0; pass < 2; pass++ {
				for l := 0; l < 6; l++ {
					p.Load(mem.Addr(0x10000 + l*mem.LineBytes))
				}
			}
			p.Store(0x10000, mem.Word(k))
			p.CSExit(1)
			p.Compute(200)
		}
		p.Barrier(0)
	}
	var got []row
	for _, n := range []int{1, 2, 4, 8, 16} {
		r, h := runCS(t, 16, n, app)
		got = append(got, row{n, h.Counters().Get("ieb.evictions"), r.Cycles})
	}
	for i, r := range got {
		if covered := r.entries >= 6; covered != (r.evictions == 0) {
			t.Errorf("%d entries: %d evictions; want evictions exactly when the buffer is below the 6-line read set", r.entries, r.evictions)
		}
		if i > 0 && r.evictions > got[i-1].evictions {
			t.Errorf("%d entries evict more (%d) than %d entries (%d)", r.entries, r.evictions, got[i-1].entries, got[i-1].evictions)
		}
	}
	pinTable(t, got, []row{
		{1, 1408, 60904}, {2, 1280, 60904}, {4, 1024, 60904},
		{8, 0, 36584}, {16, 0, 36584},
	})
}

// intraRun runs the named bench-scale intra-block workload under cfg.
func intraRun(t *testing.T, name string, cfg Config) (*Result, Hierarchy) {
	t.Helper()
	for _, w := range IntraWorkloads(ScaleBench) {
		if w.Name == name {
			h := NewHierarchy(NewIntraMachine(), cfg)
			r, err := w.Run(h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return r, h
		}
	}
	t.Fatalf("no intra workload %q", name)
	return nil, nil
}

// claimDirtyGranularity: with per-word dirty bits a writeback moves only
// the written words. The share of a full line that each written-back line
// carries falls from FFT's whole lines to Water-Nsq's 7%.
func claimDirtyGranularity(t *testing.T) {
	type row struct{ app, frac string }
	var got []row
	var fracs []float64
	for _, app := range []string{"fft", "cholesky", "barnes", "water-nsq"} {
		_, h := intraRun(t, app, BMI)
		ctr := h.(*core.Hierarchy).Counters()
		words, full := ctr.Get("wb.words"), ctr.Get("wb.dirtylines")*mem.WordsPerLine
		fracs = append(fracs, ratio(float64(words), float64(full)))
		got = append(got, row{app, frac4(words, full)})
	}
	falling := fracs[0] == 1
	for i := 1; i < len(fracs); i++ {
		falling = falling && fracs[i] < fracs[i-1]
	}
	if !falling {
		t.Errorf("want FFT at whole lines and the share falling FFT > Cholesky > Barnes > Water-Nsq; got %+v", got)
	}
	pinTable(t, got, []row{{"fft", "1.0000"}, {"cholesky", "0.6394"}, {"barnes", "0.0892"}, {"water-nsq", "0.0660"}})
}

// claimHierarchicalReduction: rewriting EP's reduction with per-block
// partial bins (Section VII-C) halves its global writebacks and cuts the
// run's cycles more than 4×.
func claimHierarchicalReduction(t *testing.T) {
	type row struct {
		variant           string
		wbs, invs, cycles int64
	}
	var got []row
	for _, v := range []struct {
		name string
		w    *IRWorkload
	}{
		{"flat", nas.EP(nas.Bench, 32)},
		{"hierarchical", nas.EPHier(nas.Bench, 32, 4)},
	} {
		h := NewModeHierarchy(NewInterMachine(), ModeAddrL).(*core.Hierarchy)
		r, err := v.w.Run(h, ModeAddrL)
		if err != nil {
			t.Fatal(err)
		}
		wb, inv := h.GlobalOps()
		got = append(got, row{v.name, wb, inv, r.Cycles})
	}
	if flat, hier := got[0], got[1]; 2*hier.wbs != flat.wbs || 4*hier.cycles >= flat.cycles {
		t.Errorf("want the hierarchical rewrite to halve global WBs and cut cycles over 4x; got %+v", got)
	}
	pinTable(t, got, []row{{"flat", 64, 66, 56008}, {"hierarchical", 32, 65, 13090}})
}

// claimWriteThrough: VIPS-style write-through needs no WB instructions,
// so it beats B+M+I's cycles, but every store pays word-granular traffic,
// so it moves more flits on every application (ocean-cont nearly 2×).
func claimWriteThrough(t *testing.T) {
	type row struct {
		app, config   string
		cycles, flits int64
	}
	var got []row
	for _, app := range []string{"cholesky", "raytrace", "ocean-cont"} {
		for _, cfg := range []Config{BMI, annotate.WT} {
			r, _ := intraRun(t, app, cfg)
			got = append(got, row{app, cfg.Name, r.Cycles, r.Traffic.Total()})
		}
	}
	for i := 0; i < len(got); i += 2 {
		if bmi, wt := got[i], got[i+1]; wt.cycles >= bmi.cycles || wt.flits <= bmi.flits {
			t.Errorf("%s: want WT fewer cycles and more flits than B+M+I; got %+v vs %+v", bmi.app, wt, bmi)
		}
	}
	pinTable(t, got, []row{
		{"cholesky", "B+M+I", 50654, 4914}, {"cholesky", "WT", 47369, 8368},
		{"raytrace", "B+M+I", 87990, 38118}, {"raytrace", "WT", 74512, 44822},
		{"ocean-cont", "B+M+I", 97480, 111596}, {"ocean-cont", "WT", 91281, 219036},
	})
}

// claimBloom: Ashby-style Bloom signatures make self-invalidation
// selective, which edges out Base on Cholesky, but every acquire still
// pays a full tag-match pass and the channels saturate, so the
// lock-intensive applications lose badly to B+M+I (and to Base).
func claimBloom(t *testing.T) {
	type row struct {
		app              string
		base, bmi, bloom int64
		saturation       string
	}
	var got []row
	for _, app := range []string{"cholesky", "raytrace", "water-nsq"} {
		rb, _ := intraRun(t, app, Base)
		rm, _ := intraRun(t, app, BMI)
		rs, h := intraRun(t, app, annotate.BloomSig)
		got = append(got, row{app, rb.Cycles, rm.Cycles, rs.Cycles, fmt.Sprintf("%.4f", h.(*core.Hierarchy).BloomMaxSaturation())})
	}
	for _, r := range got {
		if r.bloom <= r.bmi {
			t.Errorf("%s: want Bloom to lose to B+M+I; got %d vs %d cycles", r.app, r.bloom, r.bmi)
		}
		if lockHeavy := r.app != "cholesky"; lockHeavy != (r.bloom > r.base) {
			t.Errorf("%s: want Bloom to beat Base on Cholesky only; got %d vs %d cycles", r.app, r.bloom, r.base)
		}
	}
	pinTable(t, got, []row{
		{"cholesky", 67946, 50654, 67691, "0.6406"},
		{"raytrace", 155280, 87990, 230296, "0.8750"},
		{"water-nsq", 302461, 157853, 424389, "0.0156"},
	})
}

// claimDMA: on a 32-thread halo exchange, Runnemede-style DMA into the
// consumer block's L2 edges out level-adaptive shared memory on cycles
// but moves 1.9× the flits, because every chunk routes through the
// last-level cache even when producer and consumer share a block.
func claimDMA(t *testing.T) {
	const (
		threads = 32
		lines   = 4
		iters   = 8
		chunkB  = lines * mem.LineBytes
	)
	chunk := func(i int) mem.Range { return mem.RangeOf(0x100000+mem.Addr(i*chunkB), chunkB) }
	halo := func(i int) mem.Range { return mem.RangeOf(0x400000+mem.Addr(i*chunkB), chunkB) } // DMA deposit area, per consumer
	produce := func(p engine.Proc, i, it int) {
		for w := 0; w < lines*mem.WordsPerLine; w++ {
			p.Store(chunk(i).Base+mem.Addr(w*4), mem.Word(it*1000+w))
		}
	}
	consume := func(p engine.Proc, r mem.Range) {
		for w := 0; w < lines*mem.WordsPerLine; w++ {
			p.Load(r.Base + mem.Addr(w*4))
		}
	}
	type row struct {
		variant       string
		cycles, flits int64
	}
	var got []row
	for _, v := range []struct {
		name  string
		guest func(m *Machine, i int) engine.Guest
	}{
		{"adaptive", func(m *Machine, i int) engine.Guest {
			succ, pred := (i+1)%threads, (i+threads-1)%threads
			return func(p engine.Proc) {
				for it := 0; it < iters; it++ {
					produce(p, i, it)
					p.WBCons(chunk(i), succ)
					p.Barrier(0)
					p.InvProd(chunk(pred), pred)
					consume(p, chunk(pred))
					p.Barrier(0)
				}
			}
		}},
		{"dma", func(m *Machine, i int) engine.Guest {
			succ := (i + 1) % threads
			return func(p engine.Proc) {
				for it := 0; it < iters; it++ {
					produce(p, i, it)
					// Push the chunk globally and DMA it into the
					// consumer's halo area in its block's L2.
					p.WBGlobal(chunk(i))
					p.DMACopy(halo(succ).Base, chunk(i), m.BlockOf(succ))
					p.Barrier(0)
					p.INV(halo(i)) // L1-only: the DMA refreshed the L2
					consume(p, halo(i))
					p.Barrier(0)
				}
			}
		}},
	} {
		m := NewInterMachine()
		gs := make([]engine.Guest, threads)
		for i := range gs {
			gs[i] = v.guest(m, i)
		}
		r, err := Run(NewModeHierarchy(m, ModeAddrL), gs)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, row{v.name, r.Cycles, r.Traffic.Total()})
	}
	if adaptive, dma := got[0], got[1]; dma.cycles >= adaptive.cycles || dma.flits <= adaptive.flits {
		t.Errorf("want DMA fewer cycles and more flits than adaptive; got %+v", got)
	}
	pinTable(t, got, []row{{"adaptive", 7112, 16000}, {"dma", 6652, 30976}})
}

// claimBlockScaling: the share of Jacobi's global line operations (WB
// and INV) that survive level-adaptive lowering, on machines of 2 to 128
// blocks of 8 cores. It rises from 2 through 32 blocks as fewer neighbor
// pairs share a block, dips at 64 and rises again at 128. The bench grid
// has 1,024 interior elements, so at 64 and 128 blocks each thread owns
// only two or one:
//   - at 64, fewer chunks straddle a cache line, so the always-global
//     up/down exchanges count fewer lines per thread while the mostly
//     block-local left/right ones still count one line each;
//   - at 128, a thread's one element has four consumers, and the
//     compiler folds a range with more than two consumers into one global
//     writeback, which halves Addr's global WBs and leaves Addr+L almost
//     no block-local ones.
func claimBlockScaling(t *testing.T) {
	type row struct {
		blocks            int
		addrWBs, addrLWBs int64
		frac              string
	}
	var got []row
	var fracs []float64
	for _, blocks := range ManycoreBlockCounts(128)[1:] {
		run := func(mode Mode) (int64, int64) {
			m := NewManycoreMachine(blocks, DefaultManycoreCoresPerBlock)
			h := core.New(m, core.Config{Config: scaledCacheConfig(m)})
			if _, err := jacobi.New(jacobi.Bench, m.NumCores()).Run(h, mode); err != nil {
				t.Fatal(err)
			}
			return h.GlobalOps()
		}
		wbA, invA := run(ModeAddr)
		wbL, invL := run(ModeAddrL)
		fracs = append(fracs, ratio(float64(wbL+invL), float64(wbA+invA)))
		got = append(got, row{blocks, wbA, wbL, frac4(wbL+invL, wbA+invA)})
	}
	if !slices.IsSorted(fracs[:5]) || fracs[5] >= fracs[4] || fracs[6] <= fracs[5] || got[6].addrWBs >= got[5].addrWBs {
		t.Errorf("want the surviving share to rise from 2 through 32 blocks, dip at 64 and rise at 128 as Addr's global WBs fall; got %+v", got)
	}
	pinTable(t, got, []row{
		{2, 513, 65, "0.2036"}, {4, 995, 141, "0.2086"}, {8, 1629, 340, "0.2550"},
		{16, 2894, 966, "0.3581"}, {32, 5422, 3172, "0.5927"}, {64, 10478, 5990, "0.5773"},
		{128, 5266, 5239, "0.6663"},
	})
}
