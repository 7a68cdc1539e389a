package litmus

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mem"
)

// This file systematically generates every litmus-test shape up to a
// small size from the DSL's instruction alphabet, for the exhaustive
// sweep of `hicsim -suite litmus -enumerate` and the enumeration
// regression tests.
//
// Generated programs use only the annotated synchronization forms plus
// the always-safe raw ops (loads, stores, WB, INV — both WB and INV
// drain dirty words in this machine, and the oracle is purely
// value-based), so every emitted test is violation-free by construction
// and carries ExpectNone with an open (nil) Allowed set. The under-
// annotated variants come from Mutants, which strips one annotation
// bundle at a time; internal/fuzzgen judges those exhaustively.
//
// Termination of every generated program under every schedule is
// guaranteed by construction:
//
//   - critical sections are balanced, non-nested, on a single lock, and
//     contain no blocking op, so any lock holder eventually exits;
//   - a thread awaits flag f only if f was already notified earlier in
//     its own sequence, or some other thread notifies f behind a
//     wait-free prefix (no await, no barrier; CSEnter is fine since
//     critical sections always exit) — flags are only ever set to 1, so
//     the notify is permanent;
//   - barriers gate all engine threads, so every thread must carry the
//     same number of BarrierSync ops, and each inter-barrier segment's
//     awaits satisfy the rule above.
//
// DMA is constrained to stay inside the oracle's model: at most one DMA
// per program, its destination variable is stored by no thread, and its
// source is dirty-clean in the issuing thread at the DMA point (DMA
// reads the shared levels) and stored by no other thread.

// EnumOptions bounds one enumeration.
type EnumOptions struct {
	// MaxOps is the total instruction budget across all threads (k).
	// Default 4.
	MaxOps int
	// MaxThreads bounds the thread count (minimum 2 always). Default 3.
	MaxThreads int
	// Vars and Flags bound the shared-variable and flag alphabets.
	// Defaults 2 and 1.
	Vars  int
	Flags int
	// DMA includes the IDMA op in the alphabet.
	DMA bool
	// Packed additionally emits a packed-layout clone of every test that
	// uses at least two variables and no DMA.
	Packed bool
	// Locks > 0 includes balanced critical sections (on lock 0).
	Locks int
	// Barriers includes BarrierSync (id 0).
	Barriers bool
}

func (o EnumOptions) withDefaults() EnumOptions {
	if o.MaxOps <= 0 {
		o.MaxOps = 4
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = 3
	}
	if o.MaxThreads > litmusCores {
		o.MaxThreads = litmusCores
	}
	if o.Vars <= 0 {
		o.Vars = 2
	}
	if o.Flags <= 0 {
		o.Flags = 1
	}
	return o
}

// enumOp is one abstract instruction of the enumeration alphabet; values
// and registers are assigned when the program is reified into a Test.
type enumOp struct {
	kind InstrKind
	arg  int // variable (memory ops, DMA dest) or flag ID (notify/await)
	src  int // DMA source variable
}

// sym renders the op as one compact name token.
func (op enumOp) sym() string {
	switch op.kind {
	case IStore:
		return fmt.Sprintf("s%d", op.arg)
	case ILoad:
		return fmt.Sprintf("l%d", op.arg)
	case IWB:
		return fmt.Sprintf("w%d", op.arg)
	case IINV:
		return fmt.Sprintf("i%d", op.arg)
	case INotifyFlag:
		return fmt.Sprintf("n%d", op.arg)
	case IAwaitFlag:
		return fmt.Sprintf("a%d", op.arg)
	case ICSEnter:
		return "c"
	case ICSExit:
		return "x"
	case IBarrierSync:
		return "b"
	case IDMA:
		return fmt.Sprintf("d%d<%d", op.arg, op.src)
	default:
		return "?"
	}
}

// alphabet builds the op vocabulary for the options.
func (o EnumOptions) alphabet() []enumOp {
	var al []enumOp
	for v := 0; v < o.Vars; v++ {
		al = append(al,
			enumOp{kind: IStore, arg: v},
			enumOp{kind: ILoad, arg: v},
			enumOp{kind: IWB, arg: v},
			enumOp{kind: IINV, arg: v},
		)
	}
	for f := 0; f < o.Flags; f++ {
		al = append(al,
			enumOp{kind: INotifyFlag, arg: f},
			enumOp{kind: IAwaitFlag, arg: f},
		)
	}
	if o.Locks > 0 {
		al = append(al, enumOp{kind: ICSEnter}, enumOp{kind: ICSExit})
	}
	if o.Barriers {
		al = append(al, enumOp{kind: IBarrierSync})
	}
	if o.DMA {
		for dst := 0; dst < o.Vars; dst++ {
			for src := 0; src < o.Vars; src++ {
				if dst != src {
					al = append(al, enumOp{kind: IDMA, arg: dst, src: src})
				}
			}
		}
	}
	return al
}

// Enumerate generates every canonical litmus test up to the options'
// bounds. Every test is annotated-by-construction (ExpectNone, open
// outcome set); thread permutations and variable/flag renamings are
// deduplicated to one representative.
func Enumerate(o EnumOptions) []Test {
	o = o.withDefaults()
	al := o.alphabet()

	var tests []Test
	seen := map[string]bool{}
	emit := func(prog [][]enumOp) {
		if !progValid(prog) {
			return
		}
		key := canonicalKey(prog)
		if seen[key] {
			return
		}
		seen[key] = true
		t := reify(prog)
		tests = append(tests, t)
		if o.Packed && t.Vars >= 2 && !usesDMA(prog) {
			p := t
			p.Name += "+packed"
			p.Packed = true
			tests = append(tests, p)
		}
	}

	// Enumerate thread counts, per-thread lengths, and sequences.
	for n := 2; n <= o.MaxThreads; n++ {
		lens := make([]int, n)
		var fill func(i, rem int)
		var seqs [][]enumOp
		var build func(i int)
		build = func(i int) {
			if i == n {
				prog := make([][]enumOp, n)
				for j := range seqs {
					prog[j] = append([]enumOp(nil), seqs[j]...)
				}
				emit(prog)
				return
			}
			var gen func(seq []enumOp, depth int)
			gen = func(seq []enumOp, depth int) {
				if len(seq) == lens[i] {
					if depth != 0 {
						return // unbalanced critical section
					}
					seqs = append(seqs, append([]enumOp(nil), seq...))
					build(i + 1)
					seqs = seqs[:len(seqs)-1]
					return
				}
				for _, op := range al {
					if !threadStepOK(seq, depth, op) {
						continue
					}
					d := depth
					switch op.kind {
					case ICSEnter:
						d++
					case ICSExit:
						d--
					}
					gen(append(seq, op), d)
				}
			}
			gen(nil, 0)
		}
		fill = func(i, rem int) {
			if i == n {
				if rem == 0 {
					build(0)
				}
				return
			}
			// Each thread gets at least one op; leave enough for the rest.
			for l := 1; l <= rem-(n-1-i); l++ {
				lens[i] = l
				fill(i+1, rem-l)
			}
		}
		for total := n; total <= o.MaxOps; total++ {
			fill(0, total)
		}
	}
	return tests
}

// threadStepOK applies the intra-thread validity rules for appending op
// to seq at critical-section depth.
func threadStepOK(seq []enumOp, depth int, op enumOp) bool {
	switch op.kind {
	case ICSEnter:
		if depth != 0 {
			return false // non-nested
		}
	case ICSExit:
		if depth != 1 {
			return false // balanced
		}
	case IAwaitFlag, IBarrierSync:
		if depth != 0 {
			return false // no blocking inside a critical section
		}
	case IINV:
		// INV drains dirty words, so it never loses data — but an INV of
		// a variable this thread has dirty would silently publish it,
		// making the "mutant drops a publication" judgment meaningless.
		// Keep INV to clean variables.
		if dirtyAt(seq, op.arg) {
			return false
		}
	case IDMA:
		// DMA reads the shared levels: the source must be clean here.
		if dirtyAt(seq, op.src) {
			return false
		}
	}
	return true
}

// dirtyAt reports whether variable v is locally dirty (stored and not
// yet covered by a WB or a WB-ALL-bearing annotated op) after seq.
func dirtyAt(seq []enumOp, v int) bool {
	dirty := false
	for _, op := range seq {
		switch op.kind {
		case IStore:
			if op.arg == v {
				dirty = true
			}
		case IWB:
			if op.arg == v {
				dirty = false
			}
		case IINV:
			if op.arg == v {
				dirty = false // INV drains dirty words on its way out
			}
		case INotifyFlag, ICSExit, IBarrierSync:
			dirty = false // these lower with a WB ALL on the write side
		}
	}
	return dirty
}

// progValid applies the cross-thread validity rules (see the file
// comment): barrier uniformity, await liveness, DMA constraints, and
// contiguous variable/flag use.
func progValid(prog [][]enumOp) bool {
	// Barrier counts must match across every thread.
	b0 := countKind(prog[0], IBarrierSync)
	for _, seq := range prog[1:] {
		if countKind(seq, IBarrierSync) != b0 {
			return false
		}
	}

	// Every await needs a notify: earlier in its own sequence, or in
	// another thread behind a wait-free prefix.
	for ti, seq := range prog {
		for ii, op := range seq {
			if op.kind != IAwaitFlag {
				continue
			}
			if notifiesBefore(seq[:ii], op.arg) || notifiedWaitFree(prog, ti, op.arg) {
				continue
			}
			return false
		}
	}

	// DMA: at most one; dest stored by nobody; source stored only by the
	// issuing thread (clean-at-issue is the intra-thread rule).
	dmas := 0
	for ti, seq := range prog {
		for _, op := range seq {
			if op.kind != IDMA {
				continue
			}
			dmas++
			if dmas > 1 {
				return false
			}
			for tj, other := range prog {
				for _, oo := range other {
					if oo.kind == IStore && oo.arg == op.arg {
						return false // dest stored
					}
					if tj != ti && oo.kind == IStore && oo.arg == op.src {
						return false // source stored by another thread
					}
				}
			}
		}
	}

	// Used variables and flags must form prefixes {0..m} so renamings of
	// the same shape are generated once (canonicalKey dedups the rest).
	return contiguous(usedVars(prog)) && contiguous(usedFlags(prog))
}

func countKind(seq []enumOp, k InstrKind) int {
	n := 0
	for _, op := range seq {
		if op.kind == k {
			n++
		}
	}
	return n
}

func notifiesBefore(prefix []enumOp, flag int) bool {
	for _, op := range prefix {
		if op.kind == INotifyFlag && op.arg == flag {
			return true
		}
	}
	return false
}

// notifiedWaitFree reports whether some thread other than ti notifies
// flag behind a prefix free of awaits and barriers.
func notifiedWaitFree(prog [][]enumOp, ti, flag int) bool {
	for tj, seq := range prog {
		if tj == ti {
			continue
		}
		for _, op := range seq {
			if op.kind == IAwaitFlag || op.kind == IBarrierSync {
				break
			}
			if op.kind == INotifyFlag && op.arg == flag {
				return true
			}
		}
	}
	return false
}

func usedVars(prog [][]enumOp) map[int]bool {
	m := map[int]bool{}
	for _, seq := range prog {
		for _, op := range seq {
			switch op.kind {
			case IStore, ILoad, IWB, IINV:
				m[op.arg] = true
			case IDMA:
				m[op.arg] = true
				m[op.src] = true
			}
		}
	}
	return m
}

func usedFlags(prog [][]enumOp) map[int]bool {
	m := map[int]bool{}
	for _, seq := range prog {
		for _, op := range seq {
			if op.kind == INotifyFlag || op.kind == IAwaitFlag {
				m[op.arg] = true
			}
		}
	}
	return m
}

func contiguous(m map[int]bool) bool {
	for i := 0; i < len(m); i++ {
		if !m[i] {
			return false
		}
	}
	return true
}

func usesDMA(prog [][]enumOp) bool {
	for _, seq := range prog {
		if countKind(seq, IDMA) > 0 {
			return true
		}
	}
	return false
}

// canonicalKey returns the minimal rendering of the program over all
// thread permutations, with variables and flags renamed by first use in
// each permutation's thread-major order — an exact canonical form, so
// dedup by key keeps exactly one representative per symmetry class.
func canonicalKey(prog [][]enumOp) string {
	best := ""
	perms(len(prog), func(order []int) {
		varMap, flagMap := map[int]int{}, map[int]int{}
		var b strings.Builder
		for i, ti := range order {
			if i > 0 {
				b.WriteByte('|')
			}
			for j, op := range prog[ti] {
				if j > 0 {
					b.WriteByte('.')
				}
				b.WriteString(renameOp(op, varMap, flagMap).sym())
			}
		}
		if s := b.String(); best == "" || s < best {
			best = s
		}
	})
	return best
}

func renameOp(op enumOp, varMap, flagMap map[int]int) enumOp {
	mapID := func(m map[int]int, id int) int {
		if v, ok := m[id]; ok {
			return v
		}
		v := len(m)
		m[id] = v
		return v
	}
	switch op.kind {
	case IStore, ILoad, IWB, IINV:
		op.arg = mapID(varMap, op.arg)
	case INotifyFlag, IAwaitFlag:
		op.arg = mapID(flagMap, op.arg)
	case IDMA:
		op.arg = mapID(varMap, op.arg)
		op.src = mapID(varMap, op.src)
	}
	return op
}

// perms calls f with every permutation of 0..n-1 (n is tiny).
func perms(n int, f func([]int)) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			f(order)
			return
		}
		for i := k; i < n; i++ {
			order[k], order[i] = order[i], order[k]
			rec(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	rec(0)
}

// reify turns an abstract program into a runnable Test: store values and
// load registers are assigned in thread-major order, every used variable
// joins Final, the outcome set is open (nil Allowed), and the name is
// the program's canonical rendering.
func reify(prog [][]enumOp) Test {
	t := Test{Expect: ExpectNone}
	t.Vars = len(usedVars(prog))
	val := mem.Word(0)
	var name []string
	for _, seq := range prog {
		var instrs []Instr
		var syms []string
		for _, op := range seq {
			syms = append(syms, op.sym())
			switch op.kind {
			case IStore:
				val++
				instrs = append(instrs, Store(VarID(op.arg), val))
			case ILoad:
				instrs = append(instrs, Load(VarID(op.arg), Reg(t.Regs)))
				t.Regs++
			case IWB:
				instrs = append(instrs, WB(VarID(op.arg)))
			case IINV:
				instrs = append(instrs, INV(VarID(op.arg)))
			case INotifyFlag:
				instrs = append(instrs, NotifyFlag(op.arg, 1))
			case IAwaitFlag:
				instrs = append(instrs, AwaitFlag(op.arg, 1))
			case ICSEnter:
				instrs = append(instrs, CSEnter(0))
			case ICSExit:
				instrs = append(instrs, CSExit(0))
			case IBarrierSync:
				instrs = append(instrs, BarrierSync(0))
			case IDMA:
				instrs = append(instrs, DMA(VarID(op.arg), VarID(op.src), 0))
			}
		}
		t.Threads = append(t.Threads, instrs)
		name = append(name, strings.Join(syms, "."))
	}
	for v := 0; v < t.Vars; v++ {
		t.Final = append(t.Final, VarID(v))
	}
	t.Name = "enum[" + strings.Join(name, "|") + "]"
	t.Doc = "enumerated annotated program (violation-free by construction)"
	return t
}

// rawForm maps each annotated sync instruction to its raw machine
// counterpart, stripping the annotation bundle the config would lower
// around it. Ops without a raw counterpart (the barrier has none in the
// DSL) map to ok=false.
func rawForm(in Instr) (Instr, bool) {
	switch in.Kind {
	case INotifyFlag:
		return FlagSet(in.ID, in.Val), true
	case IAwaitFlag:
		return FlagWait(in.ID, in.Val), true
	case ICSEnter:
		return Acquire(in.ID), true
	case ICSExit:
		return Release(in.ID), true
	}
	return Instr{}, false
}

// Mutants returns the under-annotated variants of t: every annotated
// sync instruction is individually replaced by its raw counterpart
// (dropping that site's WB/INV bundle). Each mutant keeps ExpectNone and
// the open outcome set — the caller judges it by exhaustive exploration
// (internal/fuzzgen.JudgeExhaustive): either some schedule exposes a
// violation, or zero violations across the full schedule space prove the
// annotation was masked (no communication crossed it).
func Mutants(t Test) []Test {
	var ms []Test
	for ti, seq := range t.Threads {
		for ii, in := range seq {
			raw, ok := rawForm(in)
			if !ok {
				continue
			}
			m := t
			m.Name = fmt.Sprintf("%s!t%di%d-raw", t.Name, ti, ii)
			m.Doc = fmt.Sprintf("mutant of %s: thread %d instr %d (%v) stripped to %v", t.Name, ti, ii, in.Kind, raw.Kind)
			m.Threads = make([][]Instr, len(t.Threads))
			for j, s := range t.Threads {
				m.Threads[j] = append([]Instr(nil), s...)
			}
			m.Threads[ti][ii] = raw
			ms = append(ms, m)
		}
	}
	return ms
}

// SweepStats aggregates one enumeration sweep (Sweep).
type SweepStats struct {
	Programs   int   `json:"programs"`
	Mutants    int   `json:"mutants"`
	Runs       int64 `json:"runs"`
	Schedules  int64 `json:"schedules"`
	DedupCuts  int64 `json:"dedup_cuts"`
	StatesSeen int64 `json:"states_seen"`
	// Violating lists enumerated (non-mutant) tests any of whose
	// schedules violated — must be empty, they are annotated by
	// construction.
	Violating []string `json:"violating,omitempty"`
	// Failed lists tests whose exploration was not exhaustive (errors,
	// truncation, or the schedule cap) — also must be empty.
	Failed []string `json:"failed,omitempty"`
}

// Sweep enumerates every test under eo and explores each one under cfg,
// aggregating the statistics the enumeration gate pins. Mutants are not
// explored here (internal/fuzzgen judges them); Mutants only counts.
func Sweep(eo EnumOptions, cfg Config, opts Options) SweepStats {
	var st SweepStats
	tests := Enumerate(eo)
	st.Programs = len(tests)
	for _, t := range tests {
		st.Mutants += len(Mutants(t))
		rep, err := Explore(t, cfg, opts)
		if err != nil {
			st.Failed = append(st.Failed, t.Name+": "+err.Error())
			continue
		}
		st.Runs += int64(rep.Runs)
		st.Schedules += int64(rep.Schedules)
		st.DedupCuts += int64(rep.DedupCuts)
		st.StatesSeen += int64(rep.StatesSeen)
		if rep.ViolationSchedules > 0 {
			st.Violating = append(st.Violating, t.Name)
		}
		if rep.ErrorRuns > 0 || rep.Truncated > 0 || rep.Capped {
			st.Failed = append(st.Failed, t.Name+": exploration not exhaustive")
		}
	}
	sort.Strings(st.Violating)
	sort.Strings(st.Failed)
	return st
}
