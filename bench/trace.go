package main

// The trace: timers around the public calls into each layer, made from
// the benchmark's own files. Simulation cells run through timedHier, a
// forwarding decorator over engine.Hierarchy that times every method by
// family, with an obs recorder attached for the modelled counts. Nothing
// here changes what the layers compute; traceRun checks that the traced
// pass reproduces the untraced pass's results exactly.

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mesi"
	"repro/internal/obs"
)

// tracer accumulates one traced pass's layer measurements. It is safe
// for concurrent use by the runner's workers.
type tracer struct {
	mu      sync.Mutex
	sum     map[string]float64
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{sum: map[string]float64{}, samples: map[string][]float64{}}
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.sum[name] += v
	t.mu.Unlock()
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// time runs f and adds its duration in seconds to the named metric.
func (t *tracer) time(name string, f func()) {
	start := time.Now()
	f()
	t.add(name, time.Since(start).Seconds())
}

// Hierarchy method families, as the per-layer metrics name them.
const (
	famAccess = iota
	famWB
	famINV
	famAdaptive
	famDMA
	famSync
	famDrain
	numFams
)

var famNames = [numFams]string{"access", "wb", "inv", "adaptive", "dma", "sync", "drain"}

// timedHier forwards every engine.Hierarchy call to the wrapped
// hierarchy and accumulates call counts and host time per family. One
// instance serves one cell, which the engine drives from one goroutine.
type timedHier struct {
	engine.Hierarchy
	calls [numFams]int64
	busy  [numFams]time.Duration
}

func (t *timedHier) done(f int, start time.Time) {
	t.calls[f]++
	t.busy[f] += time.Since(start)
}

func (t *timedHier) Load(core int, a mem.Addr) (mem.Word, int64) {
	s := time.Now()
	v, lat := t.Hierarchy.Load(core, a)
	t.done(famAccess, s)
	return v, lat
}

func (t *timedHier) Store(core int, a mem.Addr, v mem.Word) int64 {
	s := time.Now()
	lat := t.Hierarchy.Store(core, a, v)
	t.done(famAccess, s)
	return lat
}

func (t *timedHier) LoadUncached(core int, a mem.Addr) (mem.Word, int64) {
	s := time.Now()
	v, lat := t.Hierarchy.LoadUncached(core, a)
	t.done(famAccess, s)
	return v, lat
}

func (t *timedHier) StoreUncached(core int, a mem.Addr, v mem.Word) int64 {
	s := time.Now()
	lat := t.Hierarchy.StoreUncached(core, a, v)
	t.done(famAccess, s)
	return lat
}

func (t *timedHier) WB(core int, r mem.Range, lvl isa.Level) int64 {
	s := time.Now()
	lat := t.Hierarchy.WB(core, r, lvl)
	t.done(famWB, s)
	return lat
}

func (t *timedHier) WBAll(core int, useMEB bool, lvl isa.Level) int64 {
	s := time.Now()
	lat := t.Hierarchy.WBAll(core, useMEB, lvl)
	t.done(famWB, s)
	return lat
}

func (t *timedHier) SigPublish(core, ch int) int64 {
	s := time.Now()
	lat := t.Hierarchy.SigPublish(core, ch)
	t.done(famWB, s)
	return lat
}

func (t *timedHier) INV(core int, r mem.Range, lvl isa.Level) int64 {
	s := time.Now()
	lat := t.Hierarchy.INV(core, r, lvl)
	t.done(famINV, s)
	return lat
}

func (t *timedHier) INVAll(core int, lazy bool, lvl isa.Level) int64 {
	s := time.Now()
	lat := t.Hierarchy.INVAll(core, lazy, lvl)
	t.done(famINV, s)
	return lat
}

func (t *timedHier) INVSig(core, ch int) int64 {
	s := time.Now()
	lat := t.Hierarchy.INVSig(core, ch)
	t.done(famINV, s)
	return lat
}

func (t *timedHier) WBCons(core int, r mem.Range, cons int) int64 {
	s := time.Now()
	lat := t.Hierarchy.WBCons(core, r, cons)
	t.done(famAdaptive, s)
	return lat
}

func (t *timedHier) InvProd(core int, r mem.Range, prod int) int64 {
	s := time.Now()
	lat := t.Hierarchy.InvProd(core, r, prod)
	t.done(famAdaptive, s)
	return lat
}

func (t *timedHier) WBConsAll(core, cons int) int64 {
	s := time.Now()
	lat := t.Hierarchy.WBConsAll(core, cons)
	t.done(famAdaptive, s)
	return lat
}

func (t *timedHier) InvProdAll(core, prod int) int64 {
	s := time.Now()
	lat := t.Hierarchy.InvProdAll(core, prod)
	t.done(famAdaptive, s)
	return lat
}

func (t *timedHier) DMACopy(core int, dst mem.Addr, src mem.Range, toBlock int) int64 {
	s := time.Now()
	lat := t.Hierarchy.DMACopy(core, dst, src, toBlock)
	t.done(famDMA, s)
	return lat
}

func (t *timedHier) SyncCost(core, id int) int64 {
	s := time.Now()
	lat := t.Hierarchy.SyncCost(core, id)
	t.done(famSync, s)
	return lat
}

func (t *timedHier) EpochBoundary(core int) {
	s := time.Now()
	t.Hierarchy.EpochBoundary(core)
	t.done(famSync, s)
}

func (t *timedHier) Drain() {
	s := time.Now()
	t.Hierarchy.Drain()
	t.done(famDrain, s)
}

// runCell is workload.RunObserved with every layer call timed: it runs
// guests on h to completion, drains, and verifies the drained memory.
func (t *tracer) runCell(ctx context.Context, h engine.Hierarchy, guests []engine.Guest, verify func(*mem.Memory) error) (*engine.Result, error) {
	rec := obs.New(obs.Config{SpanCap: -1, TrackCap: -1})
	obs.Attach(h, rec)
	th := &timedHier{Hierarchy: h}
	e := engine.New(th, guests)
	e.SetRecorder(rec)
	start := time.Now()
	res, err := e.RunCtx(ctx)
	run := time.Since(start)
	if err != nil {
		return nil, err
	}
	th.Drain()
	t.time("apps.verify_s", func() { err = verify(h.Memory()) })
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	t.addCell(h, th, run, res, rec.Snapshot())
	return res, nil
}

// addCell folds one cell's hierarchy timings, engine result and obs
// snapshot into the pass totals.
func (t *tracer) addCell(h engine.Hierarchy, th *timedHier, run time.Duration, res *engine.Result, snap *obs.Snapshot) {
	_, isMESI := h.(*mesi.Hierarchy)
	t.mu.Lock()
	defer t.mu.Unlock()
	var inRun time.Duration
	for f := 0; f < numFams; f++ {
		if f != famDrain {
			inRun += th.busy[f]
		}
		name := "core." + famNames[f]
		if isMESI {
			// MESI's WB/INV and adaptive forms are no-ops and its DMA is
			// a coherent copy, so they count as accesses.
			name = "mesi.access"
			if f == famSync || f == famDrain {
				name = "mesi." + famNames[f]
			}
		}
		t.sum[name+".calls"] += float64(th.calls[f])
		t.sum[name+".busy_s"] += th.busy[f].Seconds()
	}
	t.sum["engine.self_s"] += (run - inRun).Seconds()
	for k, n := range res.Ops {
		t.sum["engine.ops"] += float64(n)
		if isa.OpKind(k).IsSync() {
			t.sum["engine.sync_ops"] += float64(n)
		}
	}
	t.sum["sim.cycles"] += float64(res.Cycles)
	inv, wb, lock, barrier, rest := res.Stalls.Figure9()
	for i, v := range []int64{inv, wb, lock, barrier} {
		t.sum["stall."+stallKinds[i]] += float64(v)
	}
	t.sum["stall.total"] += float64(inv + wb + lock + barrier + rest)
	lf, wbt, invt, memt := res.Traffic.Figure10()
	for i, v := range []int64{lf, wbt, invt, memt} {
		t.sum["noc.flits."+trafficClasses[i]] += float64(v)
	}
	for k, v := range snap.Counters {
		t.sum[k] += float64(v)
	}
	t.sum["mem.pages"] += float64(snap.Gauges["mem.pages"])
}

// layerMetrics derives the per-layer metrics from the traced pass p.
// Sums that are metrics already pass through; ratios are computed here.
func (t *tracer) layerMetrics(p *pass) map[string]float64 {
	s := t.sum
	v := make(map[string]float64, len(s))
	for k, x := range s {
		v[k] = x
	}
	if busy := s["runner.busy_s"]; busy > 0 {
		v["runner.idle_frac"] = 1 - busy/(workers*p.wall.Seconds())
	}
	v["engine.self_ns_per_op"] = ratio(s["engine.self_s"]*1e9, s["engine.ops"])
	for _, l := range []string{"l1", "l2", "l3"} {
		hits, misses := s["cache."+l+".hits"], s["cache."+l+".misses"]
		v["cache."+l+".miss_frac"] = ratio(misses, hits+misses)
		v["cache.evictions"] += s["cache."+l+".evictions"]
	}
	v["cache.l1.accesses"] = s["cache.l1.hits"] + s["cache.l1.misses"]
	for _, k := range stallKinds {
		v["sim.stall."+k+"_frac"] = ratio(s["stall."+k], s["stall.total"])
	}
	v["litmus.schedule_frac"] = ratio(s["litmus.schedules"], s["litmus.runs"])
	v["litmus.us_per_run"] = ratio(s["litmus.explore_s"]*1e6, s["litmus.runs"])
	v["fuzzgen.detected_frac"] = ratio(s["fuzzgen.detected"], s["fuzzgen.mutants"])
	v["runner.cache.hit_frac"] = ratio(s["serve.cells.hits"], s["serve.cells.hits"]+s["serve.cells.misses"])
	v["serve.store.hit_frac"] = ratio(s["serve.store.hits"], s["serve.store.hits"]+s["serve.store.misses"])
	v["serve.polls_per_req"] = ratio(s["serve.polls"], float64(len(p.itemMS)))
	v["serve.submit_ms.p50"] = percentile(t.samples["serve.submit_ms"], 50)
	v["serve.result_ms.p50"] = percentile(t.samples["serve.result_ms"], 50)
	for class, ms := range p.classMS {
		v["serve."+class+"_ms.p50"] = percentile(ms, 50)
		v["serve."+class+"_ms.p90"] = percentile(ms, 90)
	}
	return v
}

// runtimeCounters are the Go runtime's cumulative allocation, GC and
// CPU counters.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles, gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return float64(s[i].Value.Uint64())
	}
	return runtimeCounters{val(0), val(1), val(2), val(3), val(4)}
}

func (c runtimeCounters) minus(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		c.allocBytes - b.allocBytes, c.allocObjects - b.allocObjects,
		c.gcCycles - b.gcCycles, c.gcCPU - b.gcCPU, c.totalCPU - b.totalCPU,
	}
}

func (c runtimeCounters) plus(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		c.allocBytes + b.allocBytes, c.allocObjects + b.allocObjects,
		c.gcCycles + b.gcCycles, c.gcCPU + b.gcCPU, c.totalCPU + b.totalCPU,
	}
}

// metrics reports the gc.* metrics of counters summed over passes
// passes of items items in all.
func (c runtimeCounters) metrics(passes, items int) map[string]float64 {
	return map[string]float64{
		"gc.alloc_mb":        c.allocBytes / (1 << 20) / float64(passes),
		"gc.allocs_per_item": ratio(c.allocObjects, float64(items)),
		"gc.cycles":          c.gcCycles / float64(passes),
		"gc.cpu_frac":        ratio(c.gcCPU, c.totalCPU),
	}
}
