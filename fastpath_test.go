package hic

import (
	"maps"
	"reflect"
	"testing"

	"repro/internal/annotate"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
)

// privateHierarchy is what both hierarchies offer the fast path and the
// differential test: the private-op surface and L1/L2 statistics.
type privateHierarchy interface {
	Hierarchy
	engine.PrivateHierarchy
	CacheStats() (l1, l2 cache.Stats)
}

// inlineCount wraps a hierarchy and counts the ops its Private accepted,
// so the differential test can tell the fast path ran.
type inlineCount struct {
	privateHierarchy
	n int64
}

func (c *inlineCount) Private(core int, kind isa.OpKind, a mem.Addr, v mem.Word) (mem.Word, bool) {
	w, ok := c.privateHierarchy.Private(core, kind, a, v)
	if ok {
		c.n++
	}
	return w, ok
}

// fastPathRun is everything a run leaves behind that the private-op fast
// path could perturb.
type fastPathRun struct {
	res    *engine.Result
	ctrs   map[string]int64
	l1, l2 cache.Stats
	mem    uint64
}

// runEngine runs guests on h to completion, under the MinTimeScheduler
// reference when sync is set (every op picked from a scan of the ready
// threads, none run inline) and on the default run queue with the fast
// path otherwise, and drains h, returning how many ops ran inline.
func runEngine(t *testing.T, h privateHierarchy, guests []Guest, sync bool) (fastPathRun, int64) {
	t.Helper()
	ic := &inlineCount{privateHierarchy: h}
	e := engine.New(ic, guests)
	if sync {
		e.SetScheduler(engine.MinTimeScheduler{})
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	h.Drain()
	r := fastPathRun{res: res, ctrs: map[string]int64{}, mem: h.Memory().Fingerprint()}
	c := h.Counters()
	for _, n := range c.Names() {
		r.ctrs[n] = c.Get(n)
	}
	r.l1, r.l2 = ic.CacheStats()
	return r, ic.n
}

// compareFastPath runs one cell both ways; run builds a fresh hierarchy
// and guests for each leg.
func compareFastPath(t *testing.T, cell string, run func(sync bool) (fastPathRun, int64)) {
	t.Helper()
	ref, _ := run(true)
	got, inlined := run(false)
	if !reflect.DeepEqual(got.res, ref.res) {
		t.Errorf("%s: result differs:\nscheduled: %+v\nfast path: %+v", cell, ref.res, got.res)
	}
	if !maps.Equal(got.ctrs, ref.ctrs) {
		t.Errorf("%s: counters differ:\nscheduled: %v\nfast path: %v", cell, ref.ctrs, got.ctrs)
	}
	if got.l1 != ref.l1 || got.l2 != ref.l2 {
		t.Errorf("%s: cache stats differ: L1 %+v vs %+v, L2 %+v vs %+v", cell, ref.l1, got.l1, ref.l2, got.l2)
	}
	if got.mem != ref.mem {
		t.Errorf("%s: final memory differs", cell)
	}
	if got.l1.Hits > 0 && inlined == 0 {
		t.Errorf("%s: %d L1 hits but no op ran inline", cell, got.l1.Hits)
	}
}

// TestFastPathMatchesSynchronous is the private-op fast path's
// differential gate: every intra application under every configuration
// (Table II's, HCC included, plus write-through and Bloom signatures) and
// every inter application under every mode must leave the same result,
// protocol counters, L1/L2 statistics and final memory on the default
// engine as under MinTimeScheduler, which picks every op itself and so
// never runs one inline.
func TestFastPathMatchesSynchronous(t *testing.T) {
	cfgs := append([]Config{annotate.WT, annotate.BloomSig}, IntraConfigs...)
	for i, w := range IntraWorkloads(ScaleTest) {
		for _, cfg := range cfgs {
			compareFastPath(t, w.Name+"/"+cfg.Name, func(sync bool) (fastPathRun, int64) {
				wl := IntraWorkloads(ScaleTest)[i]
				return runEngine(t, NewHierarchy(NewIntraMachine(), cfg).(privateHierarchy), wl.Guests(cfg), sync)
			})
		}
	}
	for i, w := range InterWorkloads(ScaleTest) {
		for _, mode := range InterModes {
			compareFastPath(t, w.Name+"/"+mode.String(), func(sync bool) (fastPathRun, int64) {
				wl := InterWorkloads(ScaleTest)[i]
				return runEngine(t, NewModeHierarchy(NewInterMachine(), mode).(privateHierarchy), compiler.Lower(wl.Prog, wl.Threads, mode), sync)
			})
		}
	}
}
