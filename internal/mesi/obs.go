package mesi

// Observability integration for the coherent baseline. MESI has no
// entry buffers to track, so the whole integration is snapshot-time: a
// collector over the cache counters, the protocol counter bag, and the
// backing store, plus the mesh's histogram hooks. Attaching a recorder
// adds no per-access cost to the protocol paths.

import "repro/internal/obs"

// SetObs attaches the observability recorder (nil detaches).
func (h *Hierarchy) SetObs(r *obs.Recorder) {
	h.M.Mesh.SetObs(r)
	if r == nil {
		return
	}
	r.OnCollect(h.collect)
}

// collect reads the hierarchy's existing counters into a snapshot.
func (h *Hierarchy) collect(c *obs.Collect) {
	h.Levels.Collect(c)
	for _, name := range h.ctr.Names() {
		c.Count("proto."+name, h.ctr.Get(name))
	}
}
