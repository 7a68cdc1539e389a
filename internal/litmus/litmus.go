// Package litmus is the repo's correctness-tooling layer: a table-driven
// litmus-test engine that drives internal/engine through every thread
// interleaving of a tiny guest program (up to a step budget, with
// partial-order pruning of provably equivalent schedules) and checks
// every outcome against both the test's declared allowed set and
// internal/oracle's visibility rules.
//
// Each test is a handful of threads written in a small instruction DSL
// (ILoad/IStore plus the WB/INV publication forms and both raw and
// annotated synchronization), a declared set of allowed final
// register/memory outcomes, and an expectation: annotated variants must
// be violation-free on every schedule, while deliberately
// under-annotated variants must expose their stale read or lost update
// on at least one schedule with the correct missing-wb / missing-inv /
// lost-update attribution. The standard suite (Suite) covers the
// classic patterns — message passing, store/load buffering, coherent
// read-read and write-write, lock- and flag-based publication, and
// Figure 6b's enforced-data-race flags — under the Base, B+M+I, and
// level-adaptive configurations.
package litmus

import (
	"fmt"
	"strconv"

	"repro/internal/annotate"
	"repro/internal/mem"
)

// VarID names one shared variable of a test. The harness places each
// variable on its own cache line (sequential lines, so tiny tests can
// never conflict-miss).
type VarID int

// Reg names one observation register. Registers are global to the test
// (any thread may write any register, though by convention each thread
// owns its own) and initialize to the sentinel UnsetReg so a register
// no instruction wrote is distinguishable from a loaded zero.
type Reg int

// UnsetReg is the initial value of every observation register.
const UnsetReg mem.Word = 0xdeadbeef

// InstrKind enumerates the litmus instruction vocabulary.
type InstrKind int

const (
	// ILoad loads Var into register Dst. IStore stores Val to Var.
	// ICompute burns Val cycles of local work.
	ILoad InstrKind = iota
	IStore
	ICompute

	// IWB / IINV are the raw per-variable writeback / self-invalidation
	// of Figure 6b: identical in every configuration. Under-annotated
	// variants use them on the side that is still correct, so the blame
	// for the exposed stale read lands on the side that omitted them.
	IWB
	IINV

	// IPublish and IInvalidate are the config-lowered publication forms:
	// WB(range) / INV(range) under Base, the MEB-served WB ALL and
	// IEB-arming lazy INV ALL under B+M+I, and WB_CONS(range, Peer) /
	// INV_PROD(range, Peer) under the level-adaptive configuration.
	IPublish
	IInvalidate

	// ISpin is Figure 6b's racy flag read loop: up to N probes of
	// {INV Var; load Var}, stopping early when the loaded value equals
	// Val. The last loaded value lands in Dst.
	ISpin

	// Raw synchronization: the machine operation with no annotation at
	// all. Under-annotated variants use these where an annotated variant
	// would use the forms below.
	IAcquire
	IRelease
	IFlagSet
	IFlagWait

	// Annotated synchronization, lowered through internal/annotate
	// exactly as Programming Model 1 programs are: the active
	// configuration decides which WB/INV forms surround the operation.
	ICSEnter
	ICSExit
	INotifyFlag
	IAwaitFlag
	IBarrierSync

	// IDMA is a DMA copy of variable Src's word to variable Var,
	// depositing the line into block Peer's L2 (core/dma.go). The source
	// must already be published — DMA reads the shared levels, not the
	// initiator's L1 — so tests pair it with a preceding IWB.
	IDMA
)

var instrNames = [...]string{
	"load", "store", "compute",
	"wb", "inv", "publish", "invalidate", "spin",
	"acquire", "release", "flagset", "flagwait",
	"csenter", "csexit", "notifyflag", "awaitflag", "barriersync",
	"dma",
}

func (k InstrKind) String() string {
	if k < 0 || int(k) >= len(instrNames) {
		return fmt.Sprintf("instr(%d)", int(k))
	}
	return instrNames[k]
}

// Instr is one litmus instruction. Only the fields relevant to Kind are
// meaningful.
type Instr struct {
	Kind InstrKind
	Var  VarID    // load/store/WB/INV/publish/spin target; IDMA destination
	Val  mem.Word // store value, spin target value, flag value, compute cycles
	Dst  Reg      // destination register (ILoad, ISpin)
	ID   int      // lock/flag/barrier identifier
	N    int      // spin probe bound (ISpin)
	Peer int      // peer thread (level-adaptive forms) or target block (IDMA)
	Src  VarID    // IDMA source variable
}

// Convenience constructors keep test tables readable.

// Load reads v into register dst.
func Load(v VarID, dst Reg) Instr { return Instr{Kind: ILoad, Var: v, Dst: dst} }

// Store writes val to v.
func Store(v VarID, val mem.Word) Instr { return Instr{Kind: IStore, Var: v, Val: val} }

// Compute burns cycles of local work.
func Compute(cycles mem.Word) Instr { return Instr{Kind: ICompute, Val: cycles} }

// WB and INV are the raw, config-invariant per-variable forms.
func WB(v VarID) Instr  { return Instr{Kind: IWB, Var: v} }
func INV(v VarID) Instr { return Instr{Kind: IINV, Var: v} }

// Publish and Invalidate are the config-lowered forms; peer is the
// consuming (resp. producing) thread for the level-adaptive lowering.
func Publish(v VarID, peer int) Instr    { return Instr{Kind: IPublish, Var: v, Peer: peer} }
func Invalidate(v VarID, peer int) Instr { return Instr{Kind: IInvalidate, Var: v, Peer: peer} }

// Spin probes v up to n times (INV + load each), stopping when it reads
// target; the last value read lands in dst.
func Spin(v VarID, target mem.Word, n int, dst Reg) Instr {
	return Instr{Kind: ISpin, Var: v, Val: target, N: n, Dst: dst}
}

// Raw synchronization.
func Acquire(lock int) Instr           { return Instr{Kind: IAcquire, ID: lock} }
func Release(lock int) Instr           { return Instr{Kind: IRelease, ID: lock} }
func FlagSet(id int, v mem.Word) Instr { return Instr{Kind: IFlagSet, ID: id, Val: v} }
func FlagWait(id int, v mem.Word) Instr {
	return Instr{Kind: IFlagWait, ID: id, Val: v}
}

// Annotated synchronization.
func CSEnter(lock int) Instr { return Instr{Kind: ICSEnter, ID: lock} }
func CSExit(lock int) Instr  { return Instr{Kind: ICSExit, ID: lock} }
func NotifyFlag(id int, v mem.Word) Instr {
	return Instr{Kind: INotifyFlag, ID: id, Val: v}
}
func AwaitFlag(id int, v mem.Word) Instr {
	return Instr{Kind: IAwaitFlag, ID: id, Val: v}
}
func BarrierSync(id int) Instr { return Instr{Kind: IBarrierSync, ID: id} }

// DMA copies src's word to dst, depositing into block toBlock's L2.
func DMA(dst, src VarID, toBlock int) Instr {
	return Instr{Kind: IDMA, Var: dst, Src: src, Peer: toBlock}
}

// Expectation declares what the exhaustive exploration must find.
type Expectation int

const (
	// ExpectNone: a correctly annotated test — zero oracle violations
	// and only Allowed outcomes, on every schedule.
	ExpectNone Expectation = iota
	// ExpectMissingWB / ExpectMissingINV / ExpectLostUpdate: an
	// under-annotated test — at least one schedule must produce an
	// oracle violation, and every violation must carry exactly this
	// attribution class.
	ExpectMissingWB
	ExpectMissingINV
	ExpectLostUpdate
	// ExpectForbidden: a racy test whose reads the oracle deliberately
	// skips — the bug instead surfaces as an outcome outside Allowed on
	// at least one schedule, with zero oracle violations.
	ExpectForbidden
)

var expectNames = [...]string{"none", "missing-wb", "missing-inv", "lost-update", "forbidden-outcome"}

func (e Expectation) String() string {
	if e < 0 || int(e) >= len(expectNames) {
		return fmt.Sprintf("expect(%d)", int(e))
	}
	return expectNames[e]
}

// Outcome is one observable final state: every observation register (in
// Reg order) plus the drained final memory value of each Final variable
// (in declaration order).
type Outcome struct {
	Regs []mem.Word
	Mem  []mem.Word
}

// Key renders the outcome as a canonical string, used as the map key in
// reports.
func (o Outcome) Key() string { return string(o.appendKey(nil)) }

// appendKey appends the outcome's Key to b.
func (o Outcome) appendKey(b []byte) []byte {
	for i, v := range o.Regs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, 'r')
		b = strconv.AppendInt(b, int64(i), 10)
		if v == UnsetReg {
			b = append(b, "=?"...)
		} else {
			b = append(b, '=')
			b = strconv.AppendUint(b, uint64(v), 10)
		}
	}
	for i, v := range o.Mem {
		if i > 0 || len(o.Regs) > 0 {
			b = append(b, ';')
		}
		b = append(b, 'm')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, '=')
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	return b
}

// Test is one litmus test.
type Test struct {
	// Name identifies the test; Doc says what it checks.
	Name string
	Doc  string
	// Vars is the number of shared variables; Regs the number of
	// observation registers.
	Vars int
	Regs int
	// Threads holds each thread's instruction sequence.
	Threads [][]Instr
	// Final lists variables whose drained final memory value joins the
	// outcome.
	Final []VarID
	// Allowed is the set of permitted outcomes. A nil Allowed leaves the
	// outcome set open (every outcome is permitted) — enumerated tests
	// (see enumerate.go) use this, relying on the oracle rather than an
	// outcome whitelist for their verdicts. An empty non-nil set still
	// forbids everything.
	Allowed []Outcome
	// Requires lists outcomes that must each appear on at least one
	// schedule — they prove the exploration actually reaches the
	// interesting interleavings rather than vacuously passing.
	Requires []Outcome
	// Expect declares the verdict rule (see Expectation).
	Expect Expectation
	// OCC sets the annotation pattern's outside-critical-section
	// communication bit for the annotated sync forms.
	OCC bool
	// Packed lays consecutive variables out word-by-word on shared cache
	// lines (false sharing) instead of one line per variable. Packed
	// tests exercise line-granular WB/INV interactions, which the
	// explorer handles soundly: same-line ops are dependent under
	// isa.Deps.
	Packed bool
}

// Validate checks the test's internal consistency.
func (t Test) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("litmus: test with empty name")
	}
	if len(t.Threads) == 0 {
		return fmt.Errorf("litmus %s: no threads", t.Name)
	}
	check := func(o Outcome, what string) error {
		if len(o.Regs) != t.Regs || len(o.Mem) != len(t.Final) {
			return fmt.Errorf("litmus %s: %s outcome %q has shape %d regs/%d mem, want %d/%d",
				t.Name, what, o.Key(), len(o.Regs), len(o.Mem), t.Regs, len(t.Final))
		}
		return nil
	}
	for _, o := range t.Allowed {
		if err := check(o, "allowed"); err != nil {
			return err
		}
	}
	for _, o := range t.Requires {
		if err := check(o, "required"); err != nil {
			return err
		}
	}
	for ti, th := range t.Threads {
		for ii, in := range th {
			if in.Var < 0 || (int(in.Var) >= t.Vars && varKinds[in.Kind]) {
				return fmt.Errorf("litmus %s: thread %d instr %d (%v) references var %d of %d",
					t.Name, ti, ii, in.Kind, in.Var, t.Vars)
			}
			if regKinds[in.Kind] && (in.Dst < 0 || int(in.Dst) >= t.Regs) {
				return fmt.Errorf("litmus %s: thread %d instr %d (%v) writes reg %d of %d",
					t.Name, ti, ii, in.Kind, in.Dst, t.Regs)
			}
			if in.Kind == ISpin && in.N < 1 {
				return fmt.Errorf("litmus %s: thread %d instr %d: spin with N=%d", t.Name, ti, ii, in.N)
			}
			if in.Kind == IDMA {
				if in.Src < 0 || int(in.Src) >= t.Vars {
					return fmt.Errorf("litmus %s: thread %d instr %d (dma) reads var %d of %d",
						t.Name, ti, ii, in.Src, t.Vars)
				}
				if in.Peer < 0 {
					return fmt.Errorf("litmus %s: thread %d instr %d: dma to block %d", t.Name, ti, ii, in.Peer)
				}
				if t.Packed {
					// The DMA engine works in whole lines; under the packed
					// layout a variable's line is shared, so a transfer would
					// clobber its neighbors.
					return fmt.Errorf("litmus %s: thread %d instr %d: dma in a packed test", t.Name, ti, ii)
				}
			}
		}
	}
	for _, v := range t.Final {
		if v < 0 || int(v) >= t.Vars {
			return fmt.Errorf("litmus %s: final var %d of %d", t.Name, v, t.Vars)
		}
	}
	return nil
}

var varKinds = map[InstrKind]bool{
	ILoad: true, IStore: true, IWB: true, IINV: true,
	IPublish: true, IInvalidate: true, ISpin: true, IDMA: true,
}

var regKinds = map[InstrKind]bool{ILoad: true, ISpin: true}

// allowed reports whether o is in the test's allowed set; a nil set is
// open (everything allowed).
func (t Test) allowed(o Outcome) bool {
	if t.Allowed == nil {
		return true
	}
	for _, a := range t.Allowed {
		if outcomeEq(a, o) {
			return true
		}
	}
	return false
}

func outcomeEq(a, b Outcome) bool {
	if len(a.Regs) != len(b.Regs) || len(a.Mem) != len(b.Mem) {
		return false
	}
	for i := range a.Regs {
		if a.Regs[i] != b.Regs[i] {
			return false
		}
	}
	for i := range a.Mem {
		if a.Mem[i] != b.Mem[i] {
			return false
		}
	}
	return true
}

// Config is one litmus execution configuration: the annotation config
// that lowers the annotated sync forms, the buffer sizes that enable
// MEB/IEB in the hierarchy, and whether the publication forms lower to
// the level-adaptive instructions.
type Config struct {
	Name string
	Ann  annotate.Config
	// MEBEntries/IEBEntries size the hierarchy's entry buffers (0 = off).
	MEBEntries int
	IEBEntries int
	// Adaptive lowers IPublish/IInvalidate to WB_CONS/INV_PROD.
	Adaptive bool
}

// The configurations that matter for the paper's protocol core
// (Table II's endpoints plus Section V's level-adaptive forms).
var (
	Base     = Config{Name: "Base", Ann: annotate.Base}
	BMI      = Config{Name: "B+M+I", Ann: annotate.BMI, MEBEntries: 16, IEBEntries: 4}
	Adaptive = Config{Name: "Adaptive", Ann: annotate.Base, Adaptive: true}
	// BM and BI are the intermediate Table II points (one entry buffer
	// each). The standard litmus matrix skips them — B+M+I subsumes both
	// buffers' interleaving surface — but the fuzz campaign
	// (internal/fuzzgen) runs all four incoherent configurations so an
	// annotation weakening is judged under every buffer combination.
	BM = Config{Name: "B+M", Ann: annotate.BM, MEBEntries: 16}
	BI = Config{Name: "B+I", Ann: annotate.BI, IEBEntries: 4}
)

// Configs is the standard configuration matrix.
var Configs = []Config{Base, BMI, Adaptive}

// ConfigByName resolves a configuration label (a request's config, as
// given to hicsim -config for the litmus and fuzz suites) to its
// Config, the fuzz-only BM/BI configurations included.
func ConfigByName(name string) (Config, bool) {
	for _, c := range append(append([]Config{}, Configs...), BM, BI) {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}
