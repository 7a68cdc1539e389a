package mesi

// Observability integration for the coherent baseline. MESI has no
// entry buffers to track, so the whole integration is snapshot-time: a
// collector over the cache counters, the protocol counter bag, and the
// backing store, plus the mesh's histogram hooks. Attaching a recorder
// adds no per-access cost to the protocol paths.

import (
	"repro/internal/cache"
	"repro/internal/obs"
)

// SetObs attaches the observability recorder (nil detaches).
func (h *Hierarchy) SetObs(r *obs.Recorder) {
	h.m.Mesh.SetObs(r)
	if r == nil {
		return
	}
	r.OnCollect(h.collect)
}

// collect reads the hierarchy's existing counters into a snapshot.
func (h *Hierarchy) collect(c *obs.Collect) {
	l1, l2 := h.CacheStats()
	emitCacheStats(c, "cache.l1", l1)
	emitCacheStats(c, "cache.l2", l2)
	if h.l3 != nil {
		emitCacheStats(c, "cache.l3", h.l3.Stats())
	}
	for _, name := range h.ctr.Names() {
		c.Count("proto."+name, h.ctr.Get(name))
	}
	words, pages := h.backing.Stats()
	c.Count("mem.footprint.words", int64(words))
	c.Gauge("mem.pages", int64(pages))
}

func addCacheStats(dst *cache.Stats, c *cache.Cache) {
	s := c.Stats()
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
	dst.WritebacksOnEvict += s.WritebacksOnEvict
}

func emitCacheStats(c *obs.Collect, prefix string, s cache.Stats) {
	c.Count(prefix+".hits", s.Hits)
	c.Count(prefix+".misses", s.Misses)
	c.Count(prefix+".evictions", s.Evictions)
	c.Count(prefix+".writebacks_on_evict", s.WritebacksOnEvict)
}
