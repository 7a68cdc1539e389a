package fuzzgen

import (
	"bytes"
	"fmt"

	"repro/internal/engine"
	"repro/internal/litmus"
	"repro/internal/mem"
	"repro/internal/oracle"
)

// The three execution engines every case runs through. The oracle run
// uses the default fast-forward engine on the single-block litmus
// machine; the differential trio runs on a two-block machine so the
// block-parallel engine actually shards. The serial leg installs
// MinTimeScheduler, which picks every op from a scan of the ready
// threads with the private-op fast path off, against the fast-forward
// leg's run queue and fast path.
//
// This is the block-parallel executor's only non-test caller: no sweep,
// command or server request can select it, because it is slower than
// the serial engine at every measured block count. It stays as an
// independently written third implementation of the same semantics, so
// a divergence between any two legs points at the engine that broke.
const (
	engFastForward = iota
	engSerial
	engBlockParallel
	numEngines
)

var engineNames = [...]string{"fast-forward", "serial", "block-parallel"}

// runResult is one execution's observable outcome.
type runResult struct {
	res  *engine.Result
	regs []mem.Word
	mem  []mem.Word
	viol []oracle.Violation
	err  error
}

// runOne executes t under cfg on a fresh blocks×coresPerBlock litmus
// machine with the chosen engine, optionally observed by the shadow-SC
// oracle. Execution is fully deterministic: same inputs, same outcome.
// Panics become errors: the shrinker legitimately tries structurally
// broken candidates (an unpaired lock release, say), and the machine
// model rejects those by panicking.
func runOne(t litmus.Test, cfg litmus.Config, blocks, coresPerBlock, eng int, withOracle bool) (out runResult) {
	defer func() {
		if r := recover(); r != nil {
			out = runResult{err: fmt.Errorf("panic: %v", r)}
		}
	}()
	return runOneInner(t, cfg, blocks, coresPerBlock, eng, withOracle)
}

func runOneInner(t litmus.Test, cfg litmus.Config, blocks, coresPerBlock, eng int, withOracle bool) runResult {
	h := litmus.NewHierarchy(cfg, blocks, coresPerBlock)
	if eng == engBlockParallel {
		h.SetBlockParallel(true)
	}
	regs := make([]mem.Word, t.Regs)
	for i := range regs {
		regs[i] = litmus.UnsetReg
	}
	e := engine.New(h, litmus.Guests(t, cfg, regs))
	var o *oracle.Oracle
	if withOracle {
		o = oracle.New(len(t.Threads))
		e.SetObserver(o)
	}
	if eng == engSerial {
		e.SetScheduler(engine.MinTimeScheduler{})
	}
	res, err := e.Run()
	if err != nil {
		return runResult{err: err}
	}
	h.Drain()
	if o != nil {
		o.CheckFinal(h.Memory())
	}
	out := runResult{res: res, regs: regs, mem: make([]mem.Word, t.Vars)}
	for v := 0; v < t.Vars; v++ {
		out.mem[v] = h.Memory().ReadWord(t.AddrOf(litmus.VarID(v)))
	}
	if o != nil {
		out.viol = o.Violations()
	}
	return out
}

// doc renders the run as a canonical byte document: simulated time,
// stall and traffic breakdowns, op counts, final registers, and final
// memory. Two runs are "the same execution" iff their docs are equal.
func (r runResult) doc() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "cycles=%d\nstalls=%v\nperthread=%v\ntraffic=%v\nops=%v\nregs=%v\nmem=%v\n",
		r.res.Cycles, r.res.Stalls, r.res.PerThread, r.res.Traffic, r.res.Ops, r.regs, r.mem)
	return b.Bytes()
}

// differentialBlocks configures the tri-engine machine: two blocks of
// two cores, so up to four threads run and the block-parallel engine
// has two real shards.
const (
	differentialBlocks = 2
	differentialCores  = 2
)

// CheckResult is the outcome of checking one test under one config.
type CheckResult struct {
	// Result is the oracle run's engine result (timings, traffic).
	Result *engine.Result
	// Violations are the oracle's findings on the fast-forward run.
	Violations []oracle.Violation
	// OracleDoc is the oracle run's canonical document (used by the
	// shrinker's determinism re-validation).
	OracleDoc []byte
	// Diverged describes a tri-engine document mismatch; empty when all
	// three engines agreed byte for byte.
	Diverged string
	// Err is a run failure (deadlock, livelock, panic surfaced as error).
	Err error
}

// Check runs t under cfg through the oracle and the three engines.
func Check(t litmus.Test, cfg litmus.Config) CheckResult {
	or := runOne(t, cfg, 1, litmusMachineCores, engFastForward, true)
	if or.err != nil {
		return CheckResult{Err: fmt.Errorf("oracle run: %w", or.err)}
	}
	out := CheckResult{Result: or.res, Violations: or.viol, OracleDoc: or.doc()}

	var docs [numEngines][]byte
	for eng := 0; eng < numEngines; eng++ {
		rr := runOne(t, cfg, differentialBlocks, differentialCores, eng, false)
		if rr.err != nil {
			out.Err = fmt.Errorf("%s run: %w", engineNames[eng], rr.err)
			return out
		}
		docs[eng] = rr.doc()
	}
	for eng := 1; eng < numEngines; eng++ {
		if !bytes.Equal(docs[0], docs[eng]) {
			out.Diverged = fmt.Sprintf("%s vs %s:\n--- %s\n%s--- %s\n%s",
				engineNames[0], engineNames[eng], engineNames[0], docs[0], engineNames[eng], docs[eng])
			break
		}
	}
	return out
}

// litmusMachineCores matches the litmus explorer's 4-core single block.
const litmusMachineCores = 4

// Mask reasons, ordered strongest claim first (the analysis stops at the
// first that applies).
const (
	// MaskNothingPending: the weakened writeback had nothing left to
	// publish — every store before it was already published.
	MaskNothingPending = "nothing-pending"
	// MaskNoConsumer: no other thread ever touches the covered
	// variables, and the final drain writes the private copy back.
	MaskNoConsumer = "no-consumer"
	// MaskRepublished: every covered variable is published again by a
	// later writeback in the same thread before its next release, so no
	// synchronized reader can observe the gap.
	MaskRepublished = "republished"
	// MaskNoStaleRead: the weakened invalidation covers nothing the
	// thread goes on to read.
	MaskNoStaleRead = "no-stale-read"
	// MaskNoStaleCopy: the reader never cached the covered variables
	// before the weakened invalidation, so its first access fetches the
	// published value anyway.
	MaskNoStaleCopy = "no-stale-copy"
	// MaskBenignSchedule: no static rule applies, but the deterministic
	// schedule never exposed the gap — the oracle checked every
	// synchronized read and the final image and found them SC-correct.
	MaskBenignSchedule = "benign-on-schedule"
)

// Verdict is the judgment of one mutant under one config.
type Verdict struct {
	// Detected: the oracle flagged at least one violation, all of them
	// attributed to the mutation site.
	Detected bool
	// MaskReason explains an undetected mutant (one of the Mask*
	// constants).
	MaskReason string
	// BadAttribution is non-empty when a violation's class, thread, or
	// address does not match the mutation site — a campaign failure.
	BadAttribution string
	// Violations are the oracle's findings (empty when undetected).
	Violations []oracle.Violation
	// Diverged / Err propagate tri-engine mismatches and run failures.
	Diverged string
	Err      error
}

// Judge checks mutant m (of parent program p) under cfg and classifies
// the outcome. Coverage and masking are computed on the parent's
// annotated instruction stream — the mutation site's coordinates live
// there.
func Judge(p Program, m Mutant, cfg litmus.Config) Verdict {
	res := Check(m.Test, cfg)
	v := Verdict{Violations: res.Violations, Diverged: res.Diverged, Err: res.Err}
	if res.Err != nil || res.Diverged != "" {
		return v
	}
	if len(res.Violations) > 0 {
		v.Detected = true
		v.BadAttribution = attribute(p, m.Site, res.Violations)
		return v
	}
	v.MaskReason = maskReason(p, m.Site)
	return v
}

// attribute checks every violation against the mutation site: the class
// must match the weakened side, the blamed thread must be the mutated
// one (lost updates blame the overwritten writer instead, so there the
// address alone ties the violation to the site), and the address must
// fall inside the site's coverage. Returns a description of the first
// mismatch, or "".
func attribute(p Program, s Site, viol []oracle.Violation) string {
	var cov map[litmus.VarID]bool
	if s.Side == SideWB {
		cov = wbCoverage(p.Test, s)
		propagateDMA(p.Test, cov)
	} else {
		cov = invCoverage(p.Test, s)
	}
	for _, v := range viol {
		vr, ok := p.Test.VarOfAddr(v.Addr)
		if !ok || !cov[vr] {
			return fmt.Sprintf("violation %v at addr 0x%x outside the %s-side coverage of site t%d.%d (%s)",
				v.Class, uint32(v.Addr), s.Side, s.Thread, s.Index, s.Class)
		}
		switch {
		case s.Side == SideWB && v.Class == oracle.MissingWB && v.Writer == s.Thread:
		case s.Side == SideWB && v.Class == oracle.LostUpdate:
		case s.Side == SideINV && v.Class == oracle.MissingINV && v.Reader == s.Thread:
		default:
			return fmt.Sprintf("violation %v (reader %d, writer %d) does not match %s-side site t%d.%d (%s)",
				v.Class, v.Reader, v.Writer, s.Side, s.Thread, s.Index, s.Class)
		}
	}
	return ""
}

// maskReason explains why the mutant produced no violation, preferring
// static proofs over the dynamic fallback.
func maskReason(p Program, s Site) string {
	t := p.Test
	if s.Side == SideWB {
		cov := wbCoverage(t, s)
		if len(cov) == 0 {
			return MaskNothingPending
		}
		if !consumed(t, s.Thread, cov) {
			return MaskNoConsumer
		}
		if republished(t, s, cov) {
			return MaskRepublished
		}
		return MaskBenignSchedule
	}
	cov := invCoverage(t, s)
	if len(cov) == 0 {
		return MaskNoStaleRead
	}
	if !t.Packed && !accessedBefore(t, s, cov) {
		return MaskNoStaleCopy
	}
	return MaskBenignSchedule
}

// consumed reports whether any thread other than owner loads, stores,
// spins on, or DMA-reads a covered variable.
func consumed(t litmus.Test, owner int, cov map[litmus.VarID]bool) bool {
	for ti, th := range t.Threads {
		for _, in := range th {
			switch in.Kind {
			case litmus.ILoad, litmus.IStore, litmus.ISpin:
				if ti != owner && cov[in.Var] {
					return true
				}
			case litmus.IDMA:
				// A DMA reads its source from the shared levels on any
				// thread — the initiator included.
				if cov[in.Src] {
					return true
				}
			}
		}
	}
	return false
}

// republished reports whether, scanning forward from the site, every
// covered variable is written back again before the thread's next
// release-side synchronization — in which case no synchronized reader
// can observe the dropped publication. The annotated release forms
// publish before they release, so a publishing sync clears its own
// pending set first.
func republished(t litmus.Test, s Site, cov map[litmus.VarID]bool) bool {
	pending := make(map[litmus.VarID]bool, len(cov))
	for v := range cov {
		pending[v] = true
	}
	for i := s.Index + 1; i < len(t.Threads[s.Thread]); i++ {
		in := t.Threads[s.Thread][i]
		switch in.Kind {
		case litmus.IWB, litmus.IPublish:
			delete(pending, in.Var)
			for v := range covLine(t, in.Var) {
				delete(pending, v)
			}
		case litmus.INotifyFlag, litmus.ICSExit, litmus.IBarrierSync:
			// Whole-cache writeback, then release: everything pending is
			// published before any reader can synchronize.
			return true
		case litmus.IFlagSet, litmus.IRelease:
			// Raw release with publications still pending: a reader may
			// synchronize past the gap.
			if len(pending) > 0 {
				return false
			}
			return true
		}
		if len(pending) == 0 {
			return true
		}
	}
	// Thread ends with pending publications and no further release: only
	// racy accesses could observe them, which is not a proof.
	return len(pending) == 0
}

// propagateDMA extends a wb-side coverage set through DMA copies: a DMA
// whose source is covered reads the stale shared copy the dropped
// write-back left behind and plants it at the destination, so the
// destination (and its packed line mates) inherits the coverage.
// Iterated to a fixpoint to follow copy chains; like wbCoverage's
// IPublish handling this only enlarges the set, a sound superset.
func propagateDMA(t litmus.Test, cov map[litmus.VarID]bool) {
	for changed := true; changed; {
		changed = false
		for _, th := range t.Threads {
			for _, in := range th {
				if in.Kind != litmus.IDMA || !cov[in.Src] || cov[in.Var] {
					continue
				}
				cov[in.Var] = true
				addLineMates(t, in.Var, cov)
				changed = true
			}
		}
	}
}

// covLine returns v's packed-layout line mates (empty when unpacked).
func covLine(t litmus.Test, v litmus.VarID) map[litmus.VarID]bool {
	out := make(map[litmus.VarID]bool)
	addLineMates(t, v, out)
	return out
}

// accessedBefore reports whether the site's thread touches a covered
// variable before the site — a private copy the weakened invalidation
// would have cleaned.
func accessedBefore(t litmus.Test, s Site, cov map[litmus.VarID]bool) bool {
	for i := 0; i < s.Index; i++ {
		in := t.Threads[s.Thread][i]
		switch in.Kind {
		case litmus.ILoad, litmus.IStore, litmus.ISpin:
			if cov[in.Var] {
				return true
			}
		}
	}
	return false
}
