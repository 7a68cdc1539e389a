// Package oracle is the coherence checker for the hardware-incoherent
// hierarchy: a shadow sequentially-consistent memory plus a
// happens-before tracker that rides the engine's event stream
// (engine.Observer) and checks every guest load against the set of values
// it may legally observe.
//
// Happens-before is induced by the machine's synchronization operations
// only — lock release→acquire, barrier arrival→departure, and flag
// set→satisfied wait — exactly the edges Programming Model 1 annotates
// with WB/INV pairs. Each thread carries a vector clock; each shadow word
// remembers its last write (writer thread, writer epoch, value) plus the
// still-legal writes concurrent with it. On a load:
//
//   - if the last write is not ordered before the reading thread (a
//     deliberate data race, e.g. the Figure 6 racy flags), several values
//     are legal and the read is not checked — the oracle is conservative
//     and never flags racy reads;
//   - otherwise the loaded value must be the last write's value or one of
//     the concurrent writes' values. Anything else is a stale read: the
//     coherence annotations failed to move the bits.
//
// Detection is purely value-based, so bookkeeping can only cause false
// negatives, never false positives. Writeback bookkeeping (which writes
// have been published by a WB-family instruction) is used only to
// attribute a detected violation to the site that should have covered it:
// an unpublished write indicts the writer's missing/ineffective WB, a
// published one the reader's missing/ineffective INV. CheckFinal compares
// the drained memory image against the shadow memory and reports lost
// updates.
//
// When a fault-injection state is attached (internal/faultinject), the
// oracle replays the hierarchy's WB sabotage decisions from its own
// cursor over the identical deterministic instruction stream, so an
// injected drop/delay correctly leaves the shadow copy unpublished and
// the resulting stale read is attributed to the injected site.
package oracle

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Class labels what kind of coherence bug a violation indicates.
type Class string

const (
	// MissingWB: the stale value's writer never published it — a WB
	// covering the address is missing or was sabotaged on the writer's
	// side.
	MissingWB Class = "missing-wb"
	// MissingINV: the value was published, so the reader kept serving a
	// stale private copy — an INV covering the address is missing or was
	// sabotaged on the reader's side.
	MissingINV Class = "missing-inv"
	// LostUpdate: after the run drained, memory does not hold any legal
	// final value for the address.
	LostUpdate Class = "lost-update"
)

// Violation is one detected coherence violation.
type Violation struct {
	Class  Class
	Addr   mem.Addr
	Reader int // reading thread; -1 for CheckFinal
	Writer int // thread whose write defines the expected value
	Cycle  int64
	Got    mem.Word
	Want   mem.Word
	// Site describes the WB/INV site that should have covered the
	// address.
	Site string
}

func (v Violation) String() string {
	switch v.Class {
	case LostUpdate:
		return fmt.Sprintf("lost update at %#x: drained memory holds %d, want %d (written by thread %d at cycle %d; %s)",
			uint32(v.Addr), v.Got, v.Want, v.Writer, v.Cycle, v.Site)
	default:
		return fmt.Sprintf("stale read (%s) at %#x: thread %d got %d at cycle %d, want %d written by thread %d; %s",
			v.Class, uint32(v.Addr), v.Reader, v.Got, v.Cycle, v.Want, v.Writer, v.Site)
	}
}

// ViolationError carries a run's violations; it is the primary error of a
// checked run.
type ViolationError struct {
	// Total counts distinct violated addresses (reads are deduplicated
	// per address, so a spinning stale reader is one violation).
	Total int
	// Violations holds the first few in detection order (capped).
	Violations []Violation
}

func (e *ViolationError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "coherence: %d violation(s)", e.Total)
	for i, v := range e.Violations {
		if i == 3 {
			fmt.Fprintf(&b, "; ...")
			break
		}
		fmt.Fprintf(&b, "; %s", v)
	}
	return b.String()
}

// ErrorKind labels the failure for the runner's error taxonomy.
func (e *ViolationError) ErrorKind() string { return "coherence" }

// maxRecorded caps the stored violation list; Total keeps counting.
const maxRecorded = 32

// maxConcurrent caps the per-word concurrent-write list; a word whose
// race degree exceeds it becomes unchecked (conservative).
const maxConcurrent = 4

type vclock []int64

func (v vclock) join(u vclock) {
	for i, x := range u {
		if x > v[i] {
			v[i] = x
		}
	}
}

// writeRec is one shadow write: enough to test visibility against any
// thread's current vector clock (writer component + epoch) and to
// attribute blame (published state, cycle).
type writeRec struct {
	thread    int
	clock     int64
	cycle     int64
	val       mem.Word
	published bool
}

// wordState is one shadow word at addr: its last write in happens-before
// order plus the writes still concurrent with it (all legal to read), or
// unchecked when the race degree overflowed.
type wordState struct {
	addr      mem.Addr
	wr        writeRec
	conc      []writeRec
	unchecked bool
}

type barrierState struct {
	acc   vclock
	dones int
}

// opAt remembers a thread's most recent WB- or INV-family instruction
// for site attribution.
type opAt struct {
	op    isa.Op
	cycle int64
	valid bool
}

func (s opAt) String() string {
	if !s.valid {
		return "none issued"
	}
	return fmt.Sprintf("last was %q at cycle %d", s.op, s.cycle)
}

// Oracle implements engine.Observer. One instance checks one run; it is
// driven from the scheduler goroutine and needs no locking.
type Oracle struct {
	n        int
	vc       []vclock
	locks    map[int]vclock
	flags    map[int]vclock
	barriers map[int]*barrierState

	words map[mem.Addr]*wordState
	// wordSlab holds every word record this oracle has built; the first
	// nwords are this run's, the ones in words, and the rest wait for
	// reuse after a Reset.
	wordSlab []*wordState
	nwords   int
	// spareClocks holds lock and flag clocks a Reset dropped, for reuse.
	spareClocks []vclock
	// unpub[t] is the set of word addresses thread t has written but not
	// yet published with a WB-family instruction; unpubSum[t] sums
	// unpubHash over it, kept in step by markUnpub and dropUnpub so that
	// Fingerprint does not walk the sets.
	unpub    []map[mem.Addr]struct{}
	unpubSum []uint64

	lastWB  []opAt // per thread, for missing-wb attribution
	lastINV []opAt // per thread, for missing-inv attribution

	fi *faultinject.State

	reported   map[mem.Addr]bool
	violations []Violation
	total      int

	// Reused key buffers for Fingerprint and CheckFinal.
	intKeys  []int
	addrKeys []mem.Addr
}

// New builds an oracle for a run with the given number of threads.
func New(threads int) *Oracle {
	o := &Oracle{
		locks:    make(map[int]vclock),
		flags:    make(map[int]vclock),
		barriers: make(map[int]*barrierState),
		words:    make(map[mem.Addr]*wordState),
		reported: make(map[mem.Addr]bool),
	}
	o.Reset(threads)
	return o
}

// Reset readies the oracle to check a new run with the given number of
// threads, leaving it in the state New(threads) builds: every shadow
// word, clock and violation forgotten and no fault state attached. The
// maps are cleared in place and kept, and the shadow word records and
// lock and flag clocks are kept for reuse, so an oracle reused across
// many short runs stops allocating them. What Violations and Err returned
// before the Reset shares storage with the next run's violations.
func (o *Oracle) Reset(threads int) {
	for _, v := range o.locks {
		o.spareClocks = append(o.spareClocks, v)
	}
	for _, v := range o.flags {
		o.spareClocks = append(o.spareClocks, v)
	}
	if o.n != threads || o.vc == nil {
		o.n = threads
		o.spareClocks = o.spareClocks[:0]
		o.vc = make([]vclock, threads)
		o.unpub = make([]map[mem.Addr]struct{}, threads)
		o.unpubSum = make([]uint64, threads)
		o.lastWB = make([]opAt, threads)
		o.lastINV = make([]opAt, threads)
		for t := range o.vc {
			o.vc[t] = make(vclock, threads)
			o.unpub[t] = make(map[mem.Addr]struct{})
		}
	}
	for t, v := range o.vc {
		clear(v)
		// Epochs start at 1 so a fresh write is not trivially visible to
		// every thread (other threads' components start at 0).
		v[t] = 1
		clear(o.unpub[t])
		o.unpubSum[t] = 0
	}
	clear(o.lastWB)
	clear(o.lastINV)
	clear(o.locks)
	clear(o.flags)
	clear(o.barriers)
	clear(o.words)
	o.nwords = 0
	clear(o.reported)
	o.fi = nil
	o.violations = o.violations[:0]
	o.total = 0
}

// SetFaults attaches the run's fault-injection state so the oracle can
// replay the hierarchy's WB sabotage decisions (nil is fine).
func (o *Oracle) SetFaults(st *faultinject.State) { o.fi = st }

// OnEvent consumes one engine event (engine.Observer).
func (o *Oracle) OnEvent(ev engine.Event) {
	switch ev.Kind {
	case engine.EvOp:
		switch ev.Op.Kind {
		case isa.OpLoad, isa.OpLoadU:
			o.load(ev)
		case isa.OpStore:
			o.store(ev, false)
		case isa.OpStoreU:
			o.store(ev, true)
		case isa.OpWB, isa.OpWBCons:
			o.wbRange(ev)
		case isa.OpWBAll, isa.OpWBConsAll:
			o.wbAll(ev)
		case isa.OpDMACopy:
			o.dma(ev)
		default:
			if ev.Op.Kind.IsINVFamily() {
				o.lastINV[ev.Thread] = opAt{op: ev.Op, cycle: ev.Time, valid: true}
			}
		}
	case engine.EvSyncIssue:
		o.syncIssue(ev)
	case engine.EvSyncDone:
		o.syncDone(ev)
	}
}

// ---- Synchronization: the happens-before edges -------------------------

func (o *Oracle) syncIssue(ev engine.Event) {
	t := ev.Thread
	switch ev.Op.Kind {
	case isa.OpRelease:
		o.locks[ev.Op.ID] = o.joined(o.locks[ev.Op.ID], o.vc[t])
		o.vc[t][t]++
	case isa.OpFlagSet:
		o.flags[ev.Op.ID] = o.joined(o.flags[ev.Op.ID], o.vc[t])
		o.vc[t][t]++
	case isa.OpBarrier:
		b := o.barriers[ev.Op.ID]
		if b == nil {
			b = &barrierState{acc: make(vclock, o.n)}
			o.barriers[ev.Op.ID] = b
		}
		b.acc.join(o.vc[t])
		o.vc[t][t]++
	}
}

func (o *Oracle) syncDone(ev engine.Event) {
	t := ev.Thread
	switch ev.Op.Kind {
	case isa.OpAcquire:
		if lv := o.locks[ev.Op.ID]; lv != nil {
			o.vc[t].join(lv)
		}
	case isa.OpFlagWait:
		if fv := o.flags[ev.Op.ID]; fv != nil {
			o.vc[t].join(fv)
		}
	case isa.OpBarrier:
		b := o.barriers[ev.Op.ID]
		if b == nil {
			return
		}
		o.vc[t].join(b.acc)
		// The engine delivers all of a round's arrivals before any of its
		// departures, so counting departures detects the round boundary.
		if b.dones++; b.dones == o.n {
			b.acc = make(vclock, o.n)
			b.dones = 0
		}
	}
}

func (o *Oracle) joined(dst, src vclock) vclock {
	if dst == nil {
		if n := len(o.spareClocks); n > 0 {
			dst = o.spareClocks[n-1]
			o.spareClocks = o.spareClocks[:n-1]
			clear(dst)
		} else {
			dst = make(vclock, o.n)
		}
	}
	dst.join(src)
	return dst
}

// ---- Shadow memory ------------------------------------------------------

func (o *Oracle) word(a mem.Addr) *wordState {
	ws := o.words[a]
	if ws == nil {
		if o.nwords < len(o.wordSlab) {
			ws = o.wordSlab[o.nwords]
			*ws = wordState{addr: a, wr: writeRec{thread: -1}}
		} else {
			ws = &wordState{addr: a, wr: writeRec{thread: -1}}
			o.wordSlab = append(o.wordSlab, ws)
		}
		o.nwords++
		o.words[a] = ws
	}
	return ws
}

// store updates the shadow word for a write by ev.Thread. Uncached
// stores land in backing memory immediately and count as published.
func (o *Oracle) store(ev engine.Event, uncached bool) {
	t := ev.Thread
	a := mem.WordAddr(ev.Op.Addr)
	ws := o.word(a)
	nw := writeRec{thread: t, clock: o.vc[t][t], cycle: ev.Time, val: ev.Op.Value, published: uncached}
	if ws.wr.thread >= 0 {
		// Keep only entries still concurrent with the new write.
		keep := ws.conc[:0]
		for _, e := range ws.conc {
			if o.vc[t][e.thread] < e.clock {
				keep = append(keep, e)
			}
		}
		ws.conc = keep
		if o.vc[t][ws.wr.thread] < ws.wr.clock {
			// The previous last write is concurrent with this one: it
			// stays legal to read.
			if len(ws.conc) >= maxConcurrent {
				ws.unchecked = true
			} else {
				ws.conc = append(ws.conc, ws.wr)
			}
		}
	}
	ws.wr = nw
	if !uncached {
		o.markUnpub(t, a)
	} else {
		o.dropUnpub(t, a)
	}
}

// markUnpub adds a to thread t's unpublished set.
func (o *Oracle) markUnpub(t int, a mem.Addr) {
	set := o.unpub[t]
	n := len(set)
	set[a] = struct{}{}
	if len(set) != n {
		o.unpubSum[t] += unpubHash(t, a)
	}
}

// dropUnpub removes a from thread t's unpublished set.
func (o *Oracle) dropUnpub(t int, a mem.Addr) {
	set := o.unpub[t]
	n := len(set)
	delete(set, a)
	if len(set) != n {
		o.unpubSum[t] -= unpubHash(t, a)
	}
}

// legalHere reports whether got is in the word's legal read set: the
// last happens-before-ordered write's value or any still-concurrent
// write's value. Allocation-free; shared by the hot-path load check and
// CheckFinal.
func legalHere(ws *wordState, got mem.Word) bool {
	if got == ws.wr.val {
		return true
	}
	for _, e := range ws.conc {
		if got == e.val {
			return true
		}
	}
	return false
}

// load checks a read against the legal value set.
func (o *Oracle) load(ev engine.Event) {
	t := ev.Thread
	a := mem.WordAddr(ev.Op.Addr)
	ws := o.words[a]
	if ws == nil || ws.unchecked || ws.wr.thread < 0 {
		return
	}
	if o.vc[t][ws.wr.thread] < ws.wr.clock {
		// Racy read (e.g. a Figure 6 spin flag): old and new values are
		// both legal; skip.
		return
	}
	got := ev.Value
	if legalHere(ws, got) {
		return
	}
	if o.reported[a] {
		return
	}
	o.reported[a] = true
	v := Violation{
		Addr:   a,
		Reader: t,
		Writer: ws.wr.thread,
		Cycle:  ev.Time,
		Got:    got,
		Want:   ws.wr.val,
	}
	if ws.wr.published {
		v.Class = MissingINV
		v.Site = fmt.Sprintf("the value was written back; an INV covering %#x is missing or ineffective on reader thread %d (%s)",
			uint32(a), t, o.lastINV[t])
	} else {
		v.Class = MissingWB
		v.Site = fmt.Sprintf("a WB covering %#x is missing or ineffective on writer thread %d (%s)",
			uint32(a), ws.wr.thread, o.lastWB[ws.wr.thread])
	}
	o.record(v)
}

func (o *Oracle) record(v Violation) {
	o.total++
	if len(o.violations) < maxRecorded {
		o.violations = append(o.violations, v)
	}
}

// ---- Writeback bookkeeping ---------------------------------------------

// consumeWB replays the fault plan's decision for the WB-family
// instruction the hierarchy just executed. A dropped instruction
// publishes nothing and leaves the words pending (the hierarchy kept
// their dirty bits, so a later writeback republishes them); a delayed
// instruction consumes the words without publishing them (the
// hierarchy parked them and cleared the dirty bits, so nothing can
// cover them again before the drain).
func (o *Oracle) consumeWB() faultinject.WBAction {
	if o.fi == nil {
		return faultinject.WBKeep
	}
	return o.fi.OracleNextWB()
}

// publish marks thread t's latest write of word a as written back.
func (o *Oracle) publish(t int, a mem.Addr) {
	if ws := o.words[a]; ws != nil && ws.wr.thread == t {
		ws.wr.published = true
	}
	o.dropUnpub(t, a)
}

// wbRange handles WB and WB_CONS: a range writeback publishes every
// dirty word of the lines overlapping the range — the hierarchy writes
// back whole lines, not just the requested words.
func (o *Oracle) wbRange(ev engine.Event) {
	t := ev.Thread
	o.lastWB[t] = opAt{op: ev.Op, cycle: ev.Time, valid: true}
	act := o.consumeWB()
	if act == faultinject.WBDrop {
		return
	}
	ev.Op.Range.Lines(func(line mem.Addr, _ mem.LineMask) {
		for i := 0; i < mem.WordsPerLine; i++ {
			a := mem.WordOfLine(line, i)
			if _, dirty := o.unpub[t][a]; dirty {
				if act == faultinject.WBDelay {
					o.dropUnpub(t, a)
				} else {
					o.publish(t, a)
				}
			}
		}
	})
}

// wbAll handles WB ALL and WB_CONS ALL: everything the thread has
// written since its last full writeback is published — except lines a
// faulty MEB silently discarded, which the hierarchy's MEB-served
// traversal missed.
func (o *Oracle) wbAll(ev engine.Event) {
	t := ev.Thread
	o.lastWB[t] = opAt{op: ev.Op, cycle: ev.Time, valid: true}
	act := o.consumeWB()
	if act == faultinject.WBDrop {
		return
	}
	if act == faultinject.WBDelay {
		// The whole pending set was parked unpublished.
		clear(o.unpub[t])
		o.unpubSum[t] = 0
		return
	}
	var miss map[mem.Addr]bool
	if o.fi != nil {
		miss = o.fi.TakeMEBMiss()
	}
	for a := range o.unpub[t] {
		if miss[mem.LineAddr(a)] {
			// Silently lost from the MEB: stays unpublished, and stays
			// pending so a later full traversal can still publish it.
			continue
		}
		o.publish(t, a)
	}
}

// dma propagates shadow state for a DMA copy: the destination words take
// the source words' expected values and are immediately published (DMA
// deposits into shared caches). A source word that is unknown, already
// unchecked, or not ordered before the initiating thread leaves the
// destination word unchecked — the engine may legally have copied a
// value the oracle cannot pin down.
func (o *Oracle) dma(ev engine.Event) {
	t := ev.Thread
	src := ev.Op.Range
	dstBase := mem.WordAddr(ev.Op.Addr)
	for off := mem.Addr(0); off < mem.Addr(src.Bytes); off += mem.WordBytes {
		sa := mem.WordAddr(src.Base + off)
		da := dstBase + off
		sw := o.words[sa]
		dw := o.word(da)
		if sw == nil || sw.wr.thread < 0 {
			// Source untouched this run: backing holds zero (or its
			// pre-run image, which the oracle does not model). Treat the
			// destination as unchecked.
			dw.wr = writeRec{thread: -1}
			dw.conc = nil
			dw.unchecked = true
			continue
		}
		if sw.unchecked || o.vc[t][sw.wr.thread] < sw.wr.clock {
			dw.wr = writeRec{thread: -1}
			dw.conc = nil
			dw.unchecked = true
			continue
		}
		dw.wr = writeRec{thread: t, clock: o.vc[t][t], cycle: ev.Time, val: sw.wr.val, published: true}
		dw.conc = append(dw.conc[:0], sw.conc...)
		dw.unchecked = false
	}
}

// ---- Final check --------------------------------------------------------

// CheckFinal compares the drained memory image against the shadow
// memory: every checked word must hold one of its legal final values.
// Call after Hierarchy.Drain.
func (o *Oracle) CheckFinal(m *mem.Memory) {
	o.addrKeys = sortedKeys(o.addrKeys, o.words)
	for _, a := range o.addrKeys {
		ws := o.words[a]
		if ws.unchecked || ws.wr.thread < 0 || o.reported[a] {
			continue
		}
		got := m.ReadWord(a)
		if legalHere(ws, got) {
			continue
		}
		o.reported[a] = true
		o.record(Violation{
			Class:  LostUpdate,
			Addr:   a,
			Reader: -1,
			Writer: ws.wr.thread,
			Cycle:  ws.wr.cycle,
			Got:    got,
			Want:   ws.wr.val,
			Site: fmt.Sprintf("the final value never reached memory; thread %d's writeback path dropped it (%s)",
				ws.wr.thread, o.lastWB[ws.wr.thread]),
		})
	}
}

// Violations returns the recorded violations in detection order.
func (o *Oracle) Violations() []Violation { return o.violations }

// Total returns the number of distinct violated addresses.
func (o *Oracle) Total() int { return o.total }

// Err returns the run's ViolationError, or nil when the run was clean.
func (o *Oracle) Err() error {
	if o.total == 0 {
		return nil
	}
	return &ViolationError{Total: o.total, Violations: o.violations}
}
