// Package fuzzgen is the annotation-robustness fuzzer: a deterministic,
// seed-addressed generator of random concurrent guest programs in the
// internal/litmus DSL, an annotation-mutation engine that weakens one
// writeback or invalidation site at a time, and a checking harness that
// runs every case under the shadow-SC coherence oracle and across the
// three execution engines (serial under MinTimeScheduler, event-driven
// fast-forward, block-parallel).
//
// The campaign's claims, per case and configuration:
//
//   - a correctly annotated program is violation-free under the oracle;
//   - an under-annotated mutant is either detected — with the violation's
//     class, thread, and address attributed to the mutation site — or
//     provably masked (no consumer, republication before the next
//     release, no stale private copy, or benign on the deterministic
//     schedule);
//   - all three engines produce byte-identical result documents for
//     every program, annotated or mutated.
//
// Any breach shrinks (shrink.go) to a minimal litmus-DSL repro and
// surfaces as a runner.ReproError, so a failing fuzz cell is a
// self-contained regression test.
package fuzzgen

import (
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/litmus"
	"repro/internal/mem"
)

// rng is the fuzzer's deterministic PRNG: iterated SplitMix64, shared
// with the fault-injection grammar so the whole robustness layer draws
// from one dependency-free stream.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	// Pre-mix so small consecutive seeds land far apart in the stream.
	return &rng{s: faultinject.SplitMix64(seed ^ 0x632be59bd9b4e019)}
}

func (r *rng) next() uint64 {
	r.s = faultinject.SplitMix64(r.s)
	return r.s
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// chance reports true with probability pct/100.
func (r *rng) chance(pct int) bool { return r.intn(100) < pct }

// Side says which half of the publication protocol a mutation weakens.
type Side int

const (
	// SideWB mutations drop a writeback: stores stay private, so the
	// oracle blames the writer (missing-wb or lost-update).
	SideWB Side = iota
	// SideINV mutations drop an invalidation: stale private copies
	// survive, so the oracle blames the reader (missing-inv).
	SideINV
)

func (s Side) String() string {
	if s == SideWB {
		return "wb"
	}
	return "inv"
}

// Site is one eligible mutation site in a generated program.
type Site struct {
	// Thread and Index locate the instruction in Test.Threads.
	Thread, Index int
	// Class labels the mutation the site admits (the E10 table rows):
	// drop-wb, drop-inv, weaken-notify, weaken-await, weaken-csenter,
	// weaken-csexit.
	Class string
	// Side is the protocol side the mutation weakens.
	Side Side
}

// Program is one generated fuzz case: a correctly annotated test plus
// its eligible mutation sites.
type Program struct {
	Seed  uint64
	Test  litmus.Test
	Sites []Site
}

// Generation bounds. Motifs append to every thread in one global order,
// so cross-thread blocking (flags, locks, barriers) can never form a
// cycle: a thread only waits on events produced in its own or an earlier
// motif segment.
const (
	minThreads = 2
	maxThreads = 4
	maxMotifs  = 3
)

// builder accumulates a program under construction.
type builder struct {
	threads [][]litmus.Instr
	sites   []Site
	vars    int
	regs    int
	ids     int
	val     mem.Word
	packed  bool
}

func (b *builder) newVar() litmus.VarID { v := litmus.VarID(b.vars); b.vars++; return v }
func (b *builder) newReg() litmus.Reg   { r := litmus.Reg(b.regs); b.regs++; return r }
func (b *builder) newID() int           { id := b.ids; b.ids++; return id }

// newVal returns a globally unique store value, so every stale read and
// lost update is attributable to exactly one write.
func (b *builder) newVal() mem.Word { b.val++; return b.val }

// emit appends in to thread t; site, when non-empty, marks it mutable.
func (b *builder) emit(t int, in litmus.Instr, class string, side Side) {
	if class != "" {
		b.sites = append(b.sites, Site{Thread: t, Index: len(b.threads[t]), Class: class, Side: side})
	}
	b.threads[t] = append(b.threads[t], in)
}

// Gen deterministically generates the program addressed by seed: the
// same seed always yields the same program, bit for bit, so a seed range
// is a corpus and a failing seed is a bug report.
func Gen(seed uint64) Program {
	r := newRNG(seed)
	n := minThreads + r.intn(maxThreads-minThreads+1)
	b := &builder{threads: make([][]litmus.Instr, n)}
	// A quarter of the corpus uses the packed (false-sharing) layout:
	// variables share cache lines word by word, exercising line-granular
	// WB/INV interactions. DMA is line-granular and therefore excluded
	// from packed programs.
	b.packed = r.chance(25)

	motifs := 1 + r.intn(maxMotifs)
	for i := 0; i < motifs; i++ {
		switch k := r.intn(4); {
		case k == 3 && !b.packed:
			b.motifDMA(r)
		case k == 3:
			b.motifMP(r)
		case k == 0:
			b.motifMP(r)
		case k == 1:
			b.motifLock(r)
		default:
			b.motifBarrier(r)
		}
	}
	if r.chance(60) {
		b.motifPrivate(r)
	}

	t := litmus.Test{
		Name:    fmt.Sprintf("fuzz-s%d", seed),
		Vars:    b.vars,
		Regs:    b.regs,
		Threads: b.threads,
		Packed:  b.packed,
	}
	for v := 0; v < b.vars; v++ {
		t.Final = append(t.Final, litmus.VarID(v))
	}
	return Program{Seed: seed, Test: t, Sites: b.sites}
}

// motifMP is flag-based message passing: a writer publishes one or two
// variables and notifies; a reader awaits and loads them. The annotated
// NotifyFlag/AwaitFlag pair carries the writeback and invalidation.
func (b *builder) motifMP(r *rng) {
	n := len(b.threads)
	w := r.intn(n)
	rd := (w + 1 + r.intn(n-1)) % n
	flag := b.newID()
	fv := b.newVal()
	vars := []litmus.VarID{b.newVar()}
	if r.chance(40) {
		vars = append(vars, b.newVar())
	}
	// Optional racy prelude: the reader samples the first variable
	// before synchronizing. The oracle skips the racy read; the load
	// just seeds a stale private copy for the invalidation side to
	// clean up.
	if r.chance(30) {
		b.emit(rd, litmus.Load(vars[0], b.newReg()), "", 0)
	}
	for _, v := range vars {
		b.emit(w, litmus.Store(v, b.newVal()), "", 0)
	}
	if r.chance(30) {
		// A redundant early writeback: always republished by the
		// NotifyFlag below, so its drop must be judged masked.
		b.emit(w, litmus.WB(vars[0]), "drop-wb", SideWB)
	}
	if r.chance(20) {
		b.emit(w, litmus.Compute(mem.Word(1+r.intn(3))), "", 0)
	}
	b.emit(w, litmus.NotifyFlag(flag, fv), "weaken-notify", SideWB)
	b.emit(rd, litmus.AwaitFlag(flag, fv), "weaken-await", SideINV)
	for _, v := range vars {
		b.emit(rd, litmus.Load(v, b.newReg()), "", 0)
	}
}

// motifLock is a critical-section conflict: two or more participants
// take the same lock and access a shared protected variable; at least
// one writes. CSEnter carries the invalidation, CSExit the writeback.
func (b *builder) motifLock(r *rng) {
	n := len(b.threads)
	k := 2 + r.intn(n-1)
	first := r.intn(n)
	lock := b.newID()
	c := b.newVar()
	for i := 0; i < k; i++ {
		t := (first + i) % n
		b.emit(t, litmus.CSEnter(lock), "weaken-csenter", SideINV)
		if i == 0 || r.chance(50) {
			b.emit(t, litmus.Store(c, b.newVal()), "", 0)
		} else {
			b.emit(t, litmus.Load(c, b.newReg()), "", 0)
		}
		if r.chance(30) {
			b.emit(t, litmus.Load(c, b.newReg()), "", 0)
		}
		b.emit(t, litmus.CSExit(lock), "weaken-csexit", SideWB)
	}
}

// motifBarrier is all-to-all exchange: every thread stores its own
// variable, crosses one barrier, and loads its neighbor's. BarrierSync
// lowers to WB ALL + barrier + INV ALL and is not a mutation site (the
// DSL has no raw rendezvous to weaken it to).
func (b *builder) motifBarrier(r *rng) {
	n := len(b.threads)
	bid := b.newID()
	vars := make([]litmus.VarID, n)
	for t := 0; t < n; t++ {
		vars[t] = b.newVar()
		b.emit(t, litmus.Store(vars[t], b.newVal()), "", 0)
	}
	for t := 0; t < n; t++ {
		b.emit(t, litmus.BarrierSync(bid), "", 0)
	}
	for t := 0; t < n; t++ {
		b.emit(t, litmus.Load(vars[(t+1)%n], b.newReg()), "", 0)
	}
}

// motifDMA is inter-block communication: a writer publishes a source
// line, DMAs it into block 0's L2, and notifies; a reader in block 0
// awaits and loads the destination. The pinned IWB before the DMA is a
// hard correctness prerequisite (the engine copies from the shared
// levels), so it is not a mutation site.
func (b *builder) motifDMA(r *rng) {
	// Writer and reader both live in the DMA's target block: threads 0
	// and 1 sit in block 0 on both the oracle and the differential
	// machines. A foreign-block initiator would make the transfer
	// cross-block, which the block-parallel engine rejects as a
	// reordering hazard unless the target block is synced first.
	w := r.intn(2)
	rd := 1 - w
	src, dst := b.newVar(), b.newVar()
	flag := b.newID()
	fv := b.newVal()
	b.emit(w, litmus.Store(src, b.newVal()), "", 0)
	b.emit(w, litmus.WB(src), "", 0)
	b.emit(w, litmus.DMA(dst, src, 0), "", 0)
	b.emit(w, litmus.NotifyFlag(flag, fv), "weaken-notify", SideWB)
	b.emit(rd, litmus.AwaitFlag(flag, fv), "weaken-await", SideINV)
	b.emit(rd, litmus.Load(dst, b.newReg()), "", 0)
}

// motifPrivate is per-thread noise: private stores, loads, and compute
// that widen cache footprints without inter-thread communication.
func (b *builder) motifPrivate(r *rng) {
	for t := range b.threads {
		if !r.chance(70) {
			continue
		}
		v := b.newVar()
		b.emit(t, litmus.Store(v, b.newVal()), "", 0)
		if r.chance(50) {
			b.emit(t, litmus.Compute(mem.Word(1+r.intn(2))), "", 0)
		}
		b.emit(t, litmus.Load(v, b.newReg()), "", 0)
	}
}
