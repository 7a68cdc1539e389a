// Package annotate implements Programming Model 1 (Section IV): shared-
// memory programs written against ordinary synchronization (barriers,
// critical sections, flags, and Figure 6's data races) are automatically
// augmented with WB and INV instructions at those synchronization points.
// The insertion rules follow Figure 4:
//
//   - barrier:   WB ALL before, INV ALL after;
//   - critical section: INV (of exposed reads) before the acquire and WB
//     (of writes) before the release; with possible outside-critical-
//     section communication (OCC), additionally WB ALL before the acquire
//     and INV ALL after the release;
//   - flag: WB ALL before the set, INV ALL after a successful wait;
//   - data race: explicit per-variable WB/INV around the racing accesses
//     (Figure 6b).
//
// The Table II configurations choose how the ALL forms execute: Base uses
// plain WB ALL/INV ALL everywhere; B+M serves critical-section WB ALLs
// from the MEB; B+I arms the IEB instead of eagerly invalidating at
// critical-section entry; B+M+I does both; HCC inserts nothing.
//
// One deliberate deviation from the paper's prose: the paper places the
// critical-section INV immediately *before* the acquire (to shorten the
// critical section) on the assumption that the cache cannot change between
// the INV and the acquire. An eager INV ALL is placed there; the *lazy*
// (IEB-arming) INV ALL is instead placed immediately *after* the acquire,
// because arming costs ~1 cycle (so there is nothing to hoist) and the IEB
// epoch must not be terminated by the acquire itself.
package annotate

import (
	"repro/internal/engine"
	"repro/internal/mem"
)

// Config selects a Table II configuration.
type Config struct {
	// Name is the configuration's label in the figures.
	Name string
	// HCC disables all annotation (hardware keeps caches coherent).
	HCC bool
	// UseMEB serves critical-section WB ALLs from the Modified Entry
	// Buffer.
	UseMEB bool
	// UseIEB arms the Invalidated Entry Buffer at critical-section entry
	// instead of eagerly invalidating.
	UseIEB bool
	// UseBloom selects Ashby-style Bloom-signature selective
	// self-invalidation for critical sections: releases publish the write
	// signature, acquires invalidate selectively against it.
	UseBloom bool
	// WriteThrough marks the VIPS-style write-through hierarchy variant:
	// stores self-downgrade continuously, so no WB instructions are
	// inserted (INV insertion is unchanged).
	WriteThrough bool
}

// The five intra-block configurations of Table II.
var (
	HCC  = Config{Name: "HCC", HCC: true}
	Base = Config{Name: "Base"}
	BM   = Config{Name: "B+M", UseMEB: true}
	BI   = Config{Name: "B+I", UseIEB: true}
	BMI  = Config{Name: "B+M+I", UseMEB: true, UseIEB: true}
	// WT is the write-through extension configuration (not in Table II):
	// Section VIII's VIPS-style self-downgrade, for TestAblationClaims.
	WT = Config{Name: "WT", WriteThrough: true, UseIEB: true}
	// BloomSig is the Ashby-style signature configuration (Section VIII
	// comparison: selective invalidation, but channel signatures saturate
	// in lock-intensive code).
	BloomSig = Config{Name: "Bloom", UseBloom: true}
)

// IntraConfigs lists the intra-block configurations in Figure 9's bar
// order.
var IntraConfigs = []Config{HCC, Base, BM, BI, BMI}

// Pattern carries the per-application sharing knowledge of Table I that
// the programmer (or a simple analysis) supplies.
type Pattern struct {
	// OCC marks possible communication outside critical sections
	// (Section IV-A.1's task-queue pattern). Unless the programmer states
	// otherwise, it must be assumed present.
	OCC bool
}

// P is the annotated processor view that applications program against. It
// embeds the raw machine interface, so computation and data accesses pass
// through unchanged; synchronization goes through the annotating methods
// below.
type P struct {
	engine.Proc
	cfg Config
	pat Pattern
}

// Wrap builds the annotated view of p for one thread.
func Wrap(p engine.Proc, cfg Config, pat Pattern) *P {
	return &P{Proc: p, cfg: cfg, pat: pat}
}

// Config returns the active configuration.
func (p *P) Config() Config { return p.cfg }

// wbAllCS issues the critical-section flavor of WB ALL. Write-through
// hierarchies have nothing to write back: stores already self-downgraded.
func (p *P) wbAllCS() {
	switch {
	case p.cfg.WriteThrough:
	case p.cfg.UseMEB:
		p.WBAllMEB()
	default:
		p.WBAll()
	}
}

// BarrierSync is an annotated global barrier: all writes are posted before
// arriving and all potentially stale data is invalidated after leaving.
// The entry buffers are not used here — barrier epochs are long and would
// overflow them (Table II applies MEB/IEB to critical sections only).
func (p *P) BarrierSync(id int) {
	if p.cfg.HCC {
		p.Barrier(id)
		return
	}
	if !p.cfg.WriteThrough {
		p.WBAll()
	}
	p.Barrier(id)
	p.INVAll()
}

// CSEnter is an annotated lock acquire. Under OCC it first posts all
// writes made since the last full writeback (the pre-acquire WB of Figure
// 4d); it then eliminates potentially stale data: eagerly before the
// acquire, or lazily via the IEB just after it.
func (p *P) CSEnter(lock int) {
	if p.cfg.HCC {
		p.Acquire(lock)
		return
	}
	if p.cfg.UseBloom {
		// Selective invalidation against the lock channel's published
		// signature replaces both the eager INV ALL and (because the
		// signature covers everything earlier holders wrote, inside or
		// outside their critical sections) the OCC INV ALL. Unlike the
		// eager INV ALL, it cannot be hoisted before the acquire: the
		// signature travels with the lock grant (Ashby et al.), and
		// releases that happen while this thread waits extend it.
		p.Acquire(lock)
		p.INVSig(lock)
		return
	}
	if p.pat.OCC {
		p.wbAllCS()
	}
	if p.cfg.UseIEB {
		p.Acquire(lock)
		p.INVAllLazy()
		return
	}
	p.INVAll()
	p.Acquire(lock)
}

// CSExit is an annotated lock release: writes made in the critical section
// are posted before the release; under OCC, data produced by earlier lock
// holders outside their critical sections may be consumed next, so the
// cache is invalidated after the release.
func (p *P) CSExit(lock int) {
	if p.cfg.HCC {
		p.Release(lock)
		return
	}
	if p.cfg.UseBloom {
		p.WBAll()
		p.SigPublish(lock)
		p.Release(lock)
		return
	}
	p.wbAllCS()
	p.Release(lock)
	if p.pat.OCC {
		p.INVAll()
	}
}

// NotifyFlag posts all writes, then sets the flag (Figure 4c's set side).
func (p *P) NotifyFlag(id int, v int64) {
	if p.cfg.HCC {
		p.FlagSet(id, v)
		return
	}
	p.wbAllCS()
	p.FlagSet(id, v)
}

// AwaitFlag waits for the flag, then invalidates potentially stale data
// (Figure 4c's wait side).
func (p *P) AwaitFlag(id int, threshold int64) {
	p.FlagWait(id, threshold)
	if !p.cfg.HCC {
		p.INVAll()
	}
}

// RacePublish implements the enforced data-race communication of Figure
// 6b: the payload ranges already written by the caller are written back,
// then the flag word is stored and written back, making both observable to
// a racing reader.
func (p *P) RacePublish(flag mem.Addr, v mem.Word, payload ...mem.Range) {
	if p.cfg.HCC {
		p.Store(flag, v)
		return
	}
	if p.cfg.WriteThrough {
		p.Store(flag, v)
		return
	}
	for _, r := range payload {
		p.WB(r)
	}
	p.Store(flag, v)
	p.WB(mem.WordRange(flag, 1))
}

// RaceSpin spins on a racing flag word until pred holds, self-invalidating
// the flag before every read, then invalidates the payload ranges and
// returns the flag value (Figure 6b's read side). spinCost models the
// loop's instruction cost per iteration.
func (p *P) RaceSpin(flag mem.Addr, pred func(mem.Word) bool, payload ...mem.Range) mem.Word {
	for {
		if !p.cfg.HCC {
			p.INV(mem.WordRange(flag, 1))
		}
		v := p.Load(flag)
		if pred(v) {
			if !p.cfg.HCC {
				for _, r := range payload {
					p.INV(r)
				}
			}
			return v
		}
		// Polite backoff: each self-invalidating probe is a full network
		// round trip, so spinning tightly would flood the mesh.
		p.Compute(256)
	}
}

// App is an application written against the annotated interface: a
// function run by every thread.
type App func(p *P)

// Guests lowers an App to engine guests for n threads under cfg and pat.
func Guests(n int, cfg Config, pat Pattern, app App) []engine.Guest {
	gs := make([]engine.Guest, n)
	for i := range gs {
		gs[i] = func(ep engine.Proc) { app(Wrap(ep, cfg, pat)) }
	}
	return gs
}
