package annotate

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/mesi"
	"repro/internal/topo"
)

func runApp(t *testing.T, cfg Config, pat Pattern, n int, app App) (engine.Hierarchy, *engine.Result) {
	t.Helper()
	m := topo.NewIntraBlock()
	var h engine.Hierarchy
	if cfg.HCC {
		h = mesi.New(m, mesi.DefaultConfig(m))
	} else {
		c := core.DefaultConfig(m)
		if cfg.UseMEB {
			c.MEBEntries = 16
		}
		if cfg.UseIEB {
			c.IEBEntries = 4
		}
		h = core.New(m, c)
	}
	res, err := engine.New(h, Guests(n, cfg, pat, app)).Run()
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	h.Drain()
	return h, res
}

// A barrier-based reduction tree: every thread writes its slot, barrier,
// thread 0 sums. Correct under every configuration.
func barrierApp(slots mem.Addr, n int, out mem.Addr) App {
	return func(p *P) {
		p.Store(slots+mem.Addr(p.ID()*4), mem.Word(p.ID()+1))
		p.BarrierSync(0)
		if p.ID() == 0 {
			var sum mem.Word
			for i := 0; i < n; i++ {
				sum += p.Load(slots + mem.Addr(i*4))
			}
			p.Store(out, sum)
		}
		p.BarrierSync(1)
	}
}

func TestBarrierAppCorrectUnderAllConfigs(t *testing.T) {
	const n = 16
	want := mem.Word(n * (n + 1) / 2)
	for _, cfg := range IntraConfigs {
		h, _ := runApp(t, cfg, Pattern{}, n, barrierApp(0x1000, n, 0x2000))
		if got := h.Memory().ReadWord(0x2000); got != want {
			t.Errorf("%s: sum = %d, want %d", cfg.Name, got, want)
		}
	}
}

// A critical-section counter with OCC disabled.
func csApp(counter mem.Addr, iters int) App {
	return func(p *P) {
		for k := 0; k < iters; k++ {
			p.CSEnter(7)
			v := p.Load(counter)
			p.Store(counter, v+1)
			p.CSExit(7)
		}
		p.BarrierSync(0)
	}
}

func TestCriticalSectionCounterUnderAllConfigs(t *testing.T) {
	const n, iters = 16, 4
	for _, cfg := range IntraConfigs {
		h, _ := runApp(t, cfg, Pattern{}, n, csApp(0x3000, iters))
		if got := h.Memory().ReadWord(0x3000); got != mem.Word(n*iters) {
			t.Errorf("%s: counter = %d, want %d", cfg.Name, got, n*iters)
		}
	}
}

// A task-queue app with OCC: each producer fills a task payload outside
// the critical section, publishes the index inside it; consumers pop the
// index inside a critical section and read the payload outside it.
func taskQueueApp(n int) App {
	const (
		qHead  = mem.Addr(0x4000)
		qItems = mem.Addr(0x4100)
		data   = mem.Addr(0x8000)
		outs   = mem.Addr(0xc000)
	)
	return func(p *P) {
		// Phase 1: each thread enqueues one task whose payload is written
		// OUTSIDE the critical section.
		payload := data + mem.Addr(p.ID()*64)
		p.Store(payload, mem.Word(1000+p.ID()))
		p.CSEnter(3)
		head := p.Load(qHead)
		p.Store(qItems+mem.Addr(head*4), mem.Word(uint32(payload)))
		p.Store(qHead, head+1)
		p.CSExit(3)
		p.BarrierSync(0)
		// Phase 2: each thread pops one task and processes its payload.
		p.CSEnter(3)
		head = p.Load(qHead)
		p.Store(qHead, head-1)
		item := p.Load(qItems + mem.Addr((head-1)*4))
		p.CSExit(3)
		v := p.Load(mem.Addr(item)) // OCC read
		p.Store(outs+mem.Addr(p.ID()*4), v)
		p.BarrierSync(1)
	}
}

func TestOCCTaskQueueUnderAllConfigs(t *testing.T) {
	const n = 16
	for _, cfg := range IntraConfigs {
		h, _ := runApp(t, cfg, Pattern{OCC: true}, n, taskQueueApp(n))
		// Every output must be some valid payload value (1000..1015): the
		// OCC annotations make the payloads visible to whichever thread
		// popped them.
		seen := map[mem.Word]bool{}
		for i := 0; i < n; i++ {
			v := h.Memory().ReadWord(0xc000 + mem.Addr(i*4))
			if v < 1000 || v >= 1000+n {
				t.Errorf("%s: thread %d processed stale payload %d", cfg.Name, i, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Errorf("%s: %d distinct payloads processed, want %d", cfg.Name, len(seen), n)
		}
	}
}

// Flag-based pipeline: thread i produces for thread i+1.
func flagPipelineApp(n int, data mem.Addr) App {
	return func(p *P) {
		id := p.ID()
		if id == 0 {
			p.Store(data, 1)
			p.NotifyFlag(0, 1)
		} else {
			p.AwaitFlag(id-1, 1)
			v := p.Load(data + mem.Addr((id-1)*4))
			p.Store(data+mem.Addr(id*4), v+1)
			p.NotifyFlag(id, 1)
		}
		p.BarrierSync(0)
	}
}

func TestFlagPipelineUnderAllConfigs(t *testing.T) {
	const n = 16
	for _, cfg := range IntraConfigs {
		h, _ := runApp(t, cfg, Pattern{}, n, flagPipelineApp(n, 0x5000))
		if got := h.Memory().ReadWord(0x5000 + mem.Addr((n-1)*4)); got != mem.Word(n) {
			t.Errorf("%s: pipeline end = %d, want %d", cfg.Name, got, n)
		}
	}
}

// Data-race communication per Figure 6.
func raceApp(flag, data mem.Addr) App {
	return func(p *P) {
		if p.ID() == 0 {
			p.Store(data, 777)
			p.RacePublish(flag, 1, mem.WordRange(data, 1))
		} else if p.ID() == 1 {
			p.RaceSpin(flag, func(v mem.Word) bool { return v == 1 }, mem.WordRange(data, 1))
			v := p.Load(data)
			p.Store(data+4, v)
		}
		p.BarrierSync(0)
	}
}

func TestRaceCommunicationUnderAllConfigs(t *testing.T) {
	for _, cfg := range IntraConfigs {
		h, _ := runApp(t, cfg, Pattern{}, 16, raceApp(0x6000, 0x6100))
		if got := h.Memory().ReadWord(0x6104); got != 777 {
			t.Errorf("%s: raced payload = %d, want 777", cfg.Name, got)
		}
	}
}

func TestHCCInsertsNoWBINV(t *testing.T) {
	h, res := runApp(t, HCC, Pattern{OCC: true}, 16, taskQueueApp(16))
	hm := h.(*mesi.Hierarchy)
	if hm.Counters().Get("ignored.wbinv") != 0 {
		t.Error("HCC configuration issued WB/INV instructions")
	}
	_ = res
}

func TestMEBConfigUsesMEB(t *testing.T) {
	h, _ := runApp(t, BMI, Pattern{OCC: true}, 16, taskQueueApp(16))
	hc := h.(*core.Hierarchy)
	if hc.Counters().Get("meb.served") == 0 {
		t.Error("B+M+I run never served a WB ALL from the MEB")
	}
	if hc.Counters().Get("ieb.armed") == 0 {
		t.Error("B+M+I run never armed the IEB")
	}
}

func TestBaseConfigTouchesNoBuffers(t *testing.T) {
	h, _ := runApp(t, Base, Pattern{OCC: true}, 16, taskQueueApp(16))
	hc := h.(*core.Hierarchy)
	if hc.Counters().Get("meb.served") != 0 || hc.Counters().Get("ieb.armed") != 0 {
		t.Error("Base run used entry buffers")
	}
}

func TestBaseSlowerThanBMIOnCriticalSections(t *testing.T) {
	// The headline intra-block effect: entry buffers recover most of the
	// Base overhead in lock-intensive code.
	_, base := runApp(t, Base, Pattern{OCC: true}, 16, taskQueueApp(16))
	_, bmi := runApp(t, BMI, Pattern{OCC: true}, 16, taskQueueApp(16))
	if bmi.Cycles >= base.Cycles {
		t.Errorf("B+M+I (%d cycles) not faster than Base (%d cycles)", bmi.Cycles, base.Cycles)
	}
}
