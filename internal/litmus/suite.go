package litmus

import "repro/internal/mem"

// Variable and register conventions used throughout the suite: X (and Y)
// are payload variables, F is a racy flag variable; r0 is the primary
// observed register, r1 the secondary (prelude or flag) register.
const (
	vX VarID = 0
	vY VarID = 1
	vF VarID = 1
)

// regsOut builds a registers-only outcome; memOut a memory-only one.
func regsOut(vals ...mem.Word) Outcome { return Outcome{Regs: vals} }
func memOut(vals ...mem.Word) Outcome  { return Outcome{Mem: vals} }

// Suite is the standard litmus table: the classic communication
// patterns, each in an annotated variant (which must be violation-free
// on every schedule) and, where a coherence annotation can be dropped,
// deliberately under-annotated variants (which must expose their stale
// read or lost update on at least one schedule, with the attribution
// naming the side that omitted the annotation).
var Suite = []Test{
	{
		Name: "mp-annotated",
		Doc: "Message passing over a hardware flag: store payload, publish, " +
			"set flag / wait flag, invalidate, load. The reader must always see the payload.",
		Vars: 1, Regs: 1,
		Threads: [][]Instr{
			{Store(vX, 1), Publish(vX, 1), FlagSet(0, 1)},
			{FlagWait(0, 1), Invalidate(vX, 0), Load(vX, 0)},
		},
		Allowed:  []Outcome{regsOut(1)},
		Requires: []Outcome{regsOut(1)},
		Expect:   ExpectNone,
	},
	{
		Name: "mp-nowb",
		Doc: "Message passing with the writer's publication dropped: the payload " +
			"stays dirty in the writer's L1 and the reader always sees stale zero (missing-wb).",
		Vars: 1, Regs: 1,
		Threads: [][]Instr{
			{Store(vX, 1), FlagSet(0, 1)},
			{FlagWait(0, 1), Invalidate(vX, 0), Load(vX, 0)},
		},
		Allowed:  []Outcome{regsOut(0)},
		Requires: []Outcome{regsOut(0)},
		Expect:   ExpectMissingWB,
	},
	{
		Name: "mp-noinv",
		Doc: "Message passing with the reader's invalidation dropped: a prelude load " +
			"caches stale zero, and schedules where it ran before the publication leave the " +
			"post-wait load hitting that stale line (missing-inv). r1 is the prelude value.",
		Vars: 1, Regs: 2,
		Threads: [][]Instr{
			{Store(vX, 1), Publish(vX, 1), FlagSet(0, 1)},
			{Load(vX, 1), FlagWait(0, 1), Load(vX, 0)},
		},
		Allowed:  []Outcome{regsOut(0, 0), regsOut(1, 1)},
		Requires: []Outcome{regsOut(0, 0), regsOut(1, 1)},
		Expect:   ExpectMissingINV,
	},
	{
		Name: "sb",
		Doc: "Store buffering with full per-variable annotation. The in-order machine " +
			"cannot produce the relaxed (0,0) outcome: each thread publishes before it reads.",
		Vars: 2, Regs: 2,
		Threads: [][]Instr{
			{Store(vX, 1), WB(vX), INV(vY), Load(vY, 0)},
			{Store(vY, 1), WB(vY), INV(vX), Load(vX, 1)},
		},
		Allowed:  []Outcome{regsOut(0, 1), regsOut(1, 0), regsOut(1, 1)},
		Requires: []Outcome{regsOut(0, 1), regsOut(1, 0), regsOut(1, 1)},
		Expect:   ExpectNone,
	},
	{
		Name: "lb",
		Doc: "Load buffering: loads precede the cross-stores. (1,1) would need each " +
			"load to observe the other thread's later store — impossible in program order.",
		Vars: 2, Regs: 2,
		Threads: [][]Instr{
			{Load(vY, 0), Store(vX, 1), WB(vX)},
			{Load(vX, 1), Store(vY, 1), WB(vY)},
		},
		Allowed:  []Outcome{regsOut(0, 0), regsOut(0, 1), regsOut(1, 0)},
		Requires: []Outcome{regsOut(0, 0), regsOut(0, 1), regsOut(1, 0)},
		Expect:   ExpectNone,
	},
	{
		Name: "corr",
		Doc: "Coherent read-read: two self-invalidating reads of one variable may " +
			"straddle the writer's publication but can never run backward (1 then 0).",
		Vars: 1, Regs: 2,
		Threads: [][]Instr{
			{Store(vX, 1), WB(vX)},
			{INV(vX), Load(vX, 0), INV(vX), Load(vX, 1)},
		},
		Allowed:  []Outcome{regsOut(0, 0), regsOut(0, 1), regsOut(1, 1)},
		Requires: []Outcome{regsOut(0, 0), regsOut(0, 1), regsOut(1, 1)},
		Expect:   ExpectNone,
	},
	{
		Name: "coww",
		Doc: "Coherent write-write: two published writes to one variable; the drained " +
			"final value is whichever writeback landed second, never a merge artifact.",
		Vars: 1, Regs: 0,
		Threads: [][]Instr{
			{Store(vX, 1), WB(vX)},
			{Store(vX, 2), WB(vX)},
		},
		Final:    []VarID{vX},
		Allowed:  []Outcome{memOut(1), memOut(2)},
		Requires: []Outcome{memOut(1), memOut(2)},
		Expect:   ExpectNone,
	},
	{
		Name: "barrier",
		Doc: "Cross publication over an annotated barrier: both threads must observe " +
			"each other's pre-barrier store on every schedule.",
		Vars: 2, Regs: 2,
		Threads: [][]Instr{
			{Store(vX, 4), BarrierSync(0), Load(vY, 0)},
			{Store(vY, 6), BarrierSync(0), Load(vX, 1)},
		},
		Allowed:  []Outcome{regsOut(6, 4)},
		Requires: []Outcome{regsOut(6, 4)},
		Expect:   ExpectNone,
	},
	{
		Name: "lock-annotated",
		Doc: "Lock-based publication through the annotated critical-section protocol: " +
			"the reader sees the write iff it locked second.",
		Vars: 1, Regs: 1,
		Threads: [][]Instr{
			{CSEnter(0), Store(vX, 5), CSExit(0)},
			{CSEnter(0), Load(vX, 0), CSExit(0)},
		},
		Allowed:  []Outcome{regsOut(0), regsOut(5)},
		Requires: []Outcome{regsOut(0), regsOut(5)},
		Expect:   ExpectNone,
	},
	{
		Name: "lock-nowb",
		Doc: "Raw lock with the writer's writeback dropped: when the reader locks " +
			"second, the release->acquire edge orders the write but the bits never moved (missing-wb).",
		Vars: 1, Regs: 1,
		Threads: [][]Instr{
			{Acquire(0), Store(vX, 5), Release(0)},
			{Acquire(0), INV(vX), Load(vX, 0), Release(0)},
		},
		Allowed:  []Outcome{regsOut(0)},
		Requires: []Outcome{regsOut(0)},
		Expect:   ExpectMissingWB,
	},
	{
		Name: "lock-noinv",
		Doc: "Raw lock with the reader's invalidation dropped: a prelude load caches " +
			"stale zero; locking second then re-reads the stale line (missing-inv). r1 is the prelude.",
		Vars: 1, Regs: 2,
		Threads: [][]Instr{
			{Acquire(0), Store(vX, 5), WB(vX), Release(0)},
			{Load(vX, 1), Acquire(0), Load(vX, 0), Release(0)},
		},
		Allowed:  []Outcome{regsOut(0, 0), regsOut(5, 5)},
		Requires: []Outcome{regsOut(0, 0), regsOut(5, 5)},
		Expect:   ExpectMissingINV,
	},
	{
		Name: "lock-lostupdate",
		Doc: "Two locked writers, the second one blind (no writeback): when it locks " +
			"first, its unpublished dirty word outlives the other writer's publication and " +
			"clobbers it at drain time (lost-update).",
		Vars: 1, Regs: 0,
		Threads: [][]Instr{
			{Acquire(0), Store(vX, 9), WB(vX), Release(0)},
			{Acquire(0), Store(vX, 7), Release(0)},
		},
		Final:    []VarID{vX},
		Allowed:  []Outcome{memOut(7)},
		Requires: []Outcome{memOut(7)},
		Expect:   ExpectLostUpdate,
	},
	{
		Name: "flag-annotated",
		Doc: "Flag publication through the annotated notify/await protocol: the " +
			"reader always sees the payload.",
		Vars: 1, Regs: 1,
		Threads: [][]Instr{
			{Store(vX, 3), NotifyFlag(0, 1)},
			{AwaitFlag(0, 1), Load(vX, 0)},
		},
		Allowed:  []Outcome{regsOut(3)},
		Requires: []Outcome{regsOut(3)},
		Expect:   ExpectNone,
	},
	{
		Name: "flag-nowb",
		Doc: "Flag publication with a raw set (no writeback): the ordered reader " +
			"always sees stale zero (missing-wb).",
		Vars: 1, Regs: 1,
		Threads: [][]Instr{
			{Store(vX, 3), FlagSet(0, 1)},
			{AwaitFlag(0, 1), Load(vX, 0)},
		},
		Allowed:  []Outcome{regsOut(0)},
		Requires: []Outcome{regsOut(0)},
		Expect:   ExpectMissingWB,
	},
	{
		Name: "flag-noinv",
		Doc: "Flag publication with a raw wait (no invalidation): a prelude load " +
			"caches stale zero that the post-wait load re-reads (missing-inv). r1 is the prelude.",
		Vars: 1, Regs: 2,
		Threads: [][]Instr{
			{Store(vX, 3), NotifyFlag(0, 1)},
			{Load(vX, 1), FlagWait(0, 1), Load(vX, 0)},
		},
		Allowed:  []Outcome{regsOut(0, 0), regsOut(3, 3)},
		Requires: []Outcome{regsOut(0, 0), regsOut(3, 3)},
		Expect:   ExpectMissingINV,
	},
	{
		Name: "race-annotated",
		Doc: "Figure 6b's enforced data race: payload and flag published per-variable, " +
			"the reader spins with self-invalidating probes. A successful spin implies the payload. " +
			"r0 is the payload, r1 the last flag probe.",
		Vars: 2, Regs: 2,
		Threads: [][]Instr{
			{Store(vX, 9), WB(vX), Store(vF, 1), WB(vF)},
			{Spin(vF, 1, 2, 1), INV(vX), Load(vX, 0)},
		},
		Allowed:  []Outcome{regsOut(9, 1), regsOut(0, 0), regsOut(9, 0)},
		Requires: []Outcome{regsOut(9, 1), regsOut(0, 0)},
		Expect:   ExpectNone,
	},
	// The three tests below were harvested from the fuzz campaign
	// (internal/fuzzgen): each is a mutated random program that the
	// oracle detected, automatically shrunk to a minimal repro by the
	// campaign's delta-debugger and promoted verbatim (names keep the
	// generating seed and mutation class).
	{
		Name: "fuzz-csexit-nowb",
		Doc: "Fuzz harvest (seed 3, weaken-csexit): a critical-section writer whose " +
			"CSExit was weakened to a raw lock release, dropping the exit writeback. On " +
			"schedules where the reader's critical section runs second, its locked read " +
			"sees stale zero (missing-wb); the store only reaches memory at the final drain. " +
			"(The shrunk repro's reader kept its lock held to the end; the promoted form " +
			"closes the reader's section so every interleaving terminates.)",
		Vars: 1, Regs: 1,
		Threads: [][]Instr{
			{CSEnter(0), Store(vX, 1), Release(0)},
			{CSEnter(0), Load(vX, 0), CSExit(0)},
		},
		Final:    []VarID{vX},
		Allowed:  []Outcome{{Regs: []mem.Word{0}, Mem: []mem.Word{1}}},
		Requires: []Outcome{{Regs: []mem.Word{0}, Mem: []mem.Word{1}}},
		Expect:   ExpectMissingWB,
	},
	{
		Name: "fuzz-notify-nowb",
		Doc: "Fuzz harvest (seed 6, weaken-notify): flag publication after a barrier " +
			"with NotifyFlag weakened to a raw flag set. The barrier's whole-cache writeback " +
			"predates the store, so the ordered reader always sees stale zero (missing-wb).",
		Vars: 1, Regs: 1,
		Threads: [][]Instr{
			{BarrierSync(0), Store(vX, 1), FlagSet(1, 2)},
			{BarrierSync(0), AwaitFlag(1, 2), Load(vX, 0)},
		},
		Final:    []VarID{vX},
		Allowed:  []Outcome{{Regs: []mem.Word{0}, Mem: []mem.Word{1}}},
		Requires: []Outcome{{Regs: []mem.Word{0}, Mem: []mem.Word{1}}},
		Expect:   ExpectMissingWB,
	},
	{
		Name: "fuzz-await-noinv",
		Doc: "Fuzz harvest (seed 18, weaken-await): message passing after a barrier " +
			"with AwaitFlag weakened to a raw flag wait, dropping the reader's invalidation. " +
			"A post-barrier prelude load caches stale zero; schedules where it beat the " +
			"publication leave the post-wait load on that stale line (missing-inv). r1 is " +
			"the post-wait value, r0 the prelude.",
		Vars: 1, Regs: 2,
		Threads: [][]Instr{
			{BarrierSync(0), Store(vX, 1), NotifyFlag(1, 2)},
			{BarrierSync(0), Load(vX, 0), FlagWait(1, 2), Load(vX, 1)},
		},
		Final: []VarID{vX},
		Allowed: []Outcome{
			{Regs: []mem.Word{0, 0}, Mem: []mem.Word{1}},
			{Regs: []mem.Word{1, 1}, Mem: []mem.Word{1}},
		},
		Requires: []Outcome{
			{Regs: []mem.Word{0, 0}, Mem: []mem.Word{1}},
			{Regs: []mem.Word{1, 1}, Mem: []mem.Word{1}},
		},
		Expect: ExpectMissingINV,
	},
	{
		Name: "race-nowb-payload",
		Doc: "Figure 6b with the payload writeback dropped: the flag is published but " +
			"the payload is not, so a successful spin observes zero payload — an outcome outside " +
			"the message-passing contract. The oracle deliberately skips these racy reads; the " +
			"declared allowed set is what catches the bug.",
		Vars: 2, Regs: 2,
		Threads: [][]Instr{
			{Store(vX, 9), Store(vF, 1), WB(vF)},
			{Spin(vF, 1, 2, 1), INV(vX), Load(vX, 0)},
		},
		Allowed:  []Outcome{regsOut(9, 1), regsOut(0, 0), regsOut(9, 0)},
		Requires: []Outcome{regsOut(0, 1)},
		Expect:   ExpectForbidden,
	},
}

// ExtraSuite holds tests outside the standard 20-test matrix: the
// 4-thread disjoint-pair test that demonstrates the DPOR explorer's
// strict schedule win over the frozen adjacent-swap counts (cross-pair
// sync steps are independent under isa.Deps), and packed-layout
// variants.
var ExtraSuite = []Test{
	{
		Name: "mp-pair-annotated",
		Doc: "Two disjoint message-passing pairs: threads 0/1 hand off X over flag 0, " +
			"threads 2/3 hand off Y over flag 1. The pairs share nothing, so DPOR (whose " +
			"dependence relation distinguishes sync primitives by ID) explores strictly " +
			"fewer schedules than adjacent-swap, which treats all sync ops as dependent.",
		Vars: 2, Regs: 2,
		Threads: [][]Instr{
			{Store(vX, 1), Publish(vX, 1), FlagSet(0, 1)},
			{FlagWait(0, 1), Invalidate(vX, 0), Load(vX, 0)},
			{Store(vY, 2), Publish(vY, 3), FlagSet(1, 1)},
			{FlagWait(1, 1), Invalidate(vY, 2), Load(vY, 1)},
		},
		Allowed:  []Outcome{regsOut(1, 2)},
		Requires: []Outcome{regsOut(1, 2)},
		Expect:   ExpectNone,
	},
	{
		Name: "mp-packed",
		Doc: "Message passing under the packed layout: the payload shares its cache " +
			"line with a variable the reader dirties (false sharing). Word-granular dirty " +
			"tracking must keep the handoff exact on every schedule.",
		Vars: 2, Regs: 1, Packed: true,
		Threads: [][]Instr{
			{Store(vX, 1), Publish(vX, 1), FlagSet(0, 1)},
			{Store(vY, 5), FlagWait(0, 1), Invalidate(vX, 0), Load(vX, 0)},
		},
		Allowed:  []Outcome{regsOut(1)},
		Requires: []Outcome{regsOut(1)},
		Expect:   ExpectNone,
	},
	{
		Name: "sb-packed",
		Doc: "Store buffering under the packed layout: both variables live on one " +
			"line, so every WB/INV is line-granular false sharing. The relaxed (0,0) " +
			"outcome must stay impossible.",
		Vars: 2, Regs: 2, Packed: true,
		Threads: [][]Instr{
			{Store(vX, 1), WB(vX), INV(vY), Load(vY, 0)},
			{Store(vY, 1), WB(vY), INV(vX), Load(vX, 1)},
		},
		Allowed:  []Outcome{regsOut(0, 1), regsOut(1, 0), regsOut(1, 1)},
		Requires: []Outcome{regsOut(0, 1), regsOut(1, 0), regsOut(1, 1)},
		Expect:   ExpectNone,
	},
	{
		Name: "fuzz-csexit-nowb-packed",
		Doc: "fuzz-csexit-nowb with a false-sharing neighbor: the reader dirties the " +
			"word next to the payload inside its critical section. The dropped exit " +
			"writeback must still be exposed (missing-wb), and the neighbor word must " +
			"not mask or corrupt the drained payload.",
		Vars: 2, Regs: 1, Packed: true,
		Threads: [][]Instr{
			{CSEnter(0), Store(vX, 1), Release(0)},
			{CSEnter(0), Store(vY, 5), Load(vX, 0), CSExit(0)},
		},
		Final:    []VarID{vX},
		Allowed:  []Outcome{{Regs: []mem.Word{0}, Mem: []mem.Word{1}}},
		Requires: []Outcome{{Regs: []mem.Word{0}, Mem: []mem.Word{1}}},
		Expect:   ExpectMissingWB,
	},
	{
		Name: "fuzz-notify-nowb-packed",
		Doc: "fuzz-notify-nowb with a false-sharing neighbor dirtied by the reader " +
			"before its await: the weakened notify (raw flag set, no writeback) must " +
			"still leave the ordered reader stale (missing-wb).",
		Vars: 2, Regs: 1, Packed: true,
		Threads: [][]Instr{
			{BarrierSync(0), Store(vX, 1), FlagSet(1, 2)},
			{BarrierSync(0), Store(vY, 5), AwaitFlag(1, 2), Load(vX, 0)},
		},
		Final:    []VarID{vX},
		Allowed:  []Outcome{{Regs: []mem.Word{0}, Mem: []mem.Word{1}}},
		Requires: []Outcome{{Regs: []mem.Word{0}, Mem: []mem.Word{1}}},
		Expect:   ExpectMissingWB,
	},
	{
		Name: "fuzz-await-noinv-packed",
		Doc: "fuzz-await-noinv with a false-sharing neighbor: the reader's prelude " +
			"load shares a line with its own dirty word, so the stale copy is pinned in " +
			"its L1. The weakened await (raw wait, no invalidation) must still re-read " +
			"the stale line (missing-inv).",
		Vars: 2, Regs: 2, Packed: true,
		Threads: [][]Instr{
			{BarrierSync(0), Store(vX, 1), NotifyFlag(1, 2)},
			{BarrierSync(0), Store(vY, 5), Load(vX, 0), FlagWait(1, 2), Load(vX, 1)},
		},
		Final: []VarID{vX},
		Allowed: []Outcome{
			{Regs: []mem.Word{0, 0}, Mem: []mem.Word{1}},
			{Regs: []mem.Word{1, 1}, Mem: []mem.Word{1}},
		},
		Requires: []Outcome{
			{Regs: []mem.Word{0, 0}, Mem: []mem.Word{1}},
			{Regs: []mem.Word{1, 1}, Mem: []mem.Word{1}},
		},
		Expect: ExpectMissingINV,
	},
}

// SuiteTest returns the suite or extra-suite entry with the given name.
func SuiteTest(name string) (Test, bool) {
	for _, t := range append(append([]Test{}, Suite...), ExtraSuite...) {
		if t.Name == name {
			return t, true
		}
	}
	return Test{}, false
}
