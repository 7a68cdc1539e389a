package core

// Observability integration. The hierarchy follows the obs package's
// two-rule design: everything that is already counted for the
// experiments (cache counters, MEB/IEB activity counters, the protocol
// counter bag, memory footprint) is read once at snapshot time through
// a collector; the only hot-path hooks are the MEB/IEB *occupancy*
// tracks, which sample the buffer fill level at each mutation — data
// that exists nowhere else. With no recorder attached the hooks are a
// single nil-slice test.

import "repro/internal/obs"

// SetObs attaches the observability recorder (nil detaches). The mesh's
// histograms are hooked, per-core MEB/IEB occupancy tracks are created
// for the cores that have buffers, and a snapshot-time collector is
// registered for the counters the hierarchy already maintains.
func (h *Hierarchy) SetObs(r *obs.Recorder) {
	h.rec = r
	h.mebTrack, h.iebTrack = nil, nil
	h.M.Mesh.SetObs(r)
	if r == nil {
		return
	}
	n := h.M.NumCores()
	h.mebTrack = make([]*obs.Track, n)
	h.iebTrack = make([]*obs.Track, n)
	for c := 0; c < n; c++ {
		if h.meb[c] != nil {
			h.mebTrack[c] = r.Track("meb.occupancy", c)
		}
		if h.ieb[c] != nil {
			h.iebTrack[c] = r.Track("ieb.occupancy", c)
		}
	}
	r.OnCollect(h.collect)
}

// sampleMEB and sampleIEB record the buffer fill level after a
// mutation. They are the hierarchy's only hot-path hooks.
func (h *Hierarchy) sampleMEB(core int) {
	if h.mebTrack == nil {
		return
	}
	if t := h.mebTrack[core]; t != nil {
		t.Sample(h.rec.Now(), int64(h.meb[core].Len()))
	}
}

func (h *Hierarchy) sampleIEB(core int) {
	if h.iebTrack == nil {
		return
	}
	if t := h.iebTrack[core]; t != nil {
		t.Sample(h.rec.Now(), int64(h.ieb[core].Len()))
	}
}

// collect reads the hierarchy's existing counters into a snapshot.
func (h *Hierarchy) collect(c *obs.Collect) {
	h.Levels.Collect(c)

	var mebRecords, mebOverflows, iebInsertions, iebEvictions int64
	for i := range h.meb {
		if b := h.meb[i]; b != nil {
			mebRecords += b.Records
			mebOverflows += b.Overflows
		}
		if b := h.ieb[i]; b != nil {
			iebInsertions += b.Insertions
			iebEvictions += b.Evictions
		}
	}
	c.Count("meb.records", mebRecords)
	c.Count("meb.overflow.events", mebOverflows)
	c.Count("ieb.insertions", iebInsertions)
	c.Count("ieb.fifo.evictions", iebEvictions)
	gaugeOccupancy(c, "meb.occupancy.hwm", h.mebTrack)
	gaugeOccupancy(c, "ieb.occupancy.hwm", h.iebTrack)

	ctr := h.Counters()
	for _, name := range ctr.Names() {
		c.Count("proto."+name, ctr.Get(name))
	}
}

// gaugeOccupancy merges the per-core high-water marks into one gauge
// (skipped entirely when no core has the buffer).
func gaugeOccupancy(c *obs.Collect, name string, tracks []*obs.Track) {
	any := false
	var hwm int64
	for _, t := range tracks {
		if t != nil {
			any = true
			if v := t.HWM(); v > hwm {
				hwm = v
			}
		}
	}
	if any {
		c.Gauge(name, hwm)
	}
}
