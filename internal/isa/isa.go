// Package isa defines the instruction-set vocabulary of the machine as seen
// by guest programs: ordinary loads and stores, the paper's writeback (WB)
// and self-invalidation (INV) instruction flavors (address/range, ALL,
// level-directed, and level-adaptive WB_CONS/INV_PROD), and the
// synchronization operations served by the shared-cache controller.
//
// The types here are shared by the execution engine, the trace
// recorder/replayer, and the annotation layers.
package isa

import (
	"fmt"

	"repro/internal/mem"
)

// OpKind enumerates the dynamic operations a guest thread can issue.
type OpKind int

const (
	// OpLoad reads one word; OpStore writes one word. Both are cacheable.
	OpLoad OpKind = iota
	OpStore
	// OpLoadU and OpStoreU are uncacheable word accesses: they go
	// straight to memory and bypass every cache level.
	OpLoadU
	OpStoreU
	// OpCompute models local computation for a given cycle count.
	OpCompute
	// OpWB writes back the dirty words of the lines overlapping a range
	// (Section III-B). OpINV eliminates those lines, writing dirty data
	// back first.
	OpWB
	OpINV
	// OpWBAll and OpINVAll operate on the whole cache. WB ALL may be
	// MEB-assisted and INV ALL may be lazy (IEB-armed); see the core
	// package.
	OpWBAll
	OpINVAll
	// OpWBCons and OpInvProd are the level-adaptive instructions of
	// Section V: WB_CONS(addr, consID) and INV_PROD(addr, prodID).
	OpWBCons
	OpInvProd
	// OpWBConsAll and OpInvProdAll are their whole-cache forms.
	OpWBConsAll
	OpInvProdAll
	// OpDMACopy initiates a DMA transfer of Range to the equal-length
	// range at Addr, depositing lines into block Peer's L2 (Runnemede's
	// inter-block DMA; see core/dma.go).
	OpDMACopy
	// OpSigPublish transfers the core's Bloom write signature to a sync
	// channel; OpINVSig selectively self-invalidates against a channel's
	// signature (the Ashby-style alternative implemented in core/bloom.go).
	OpSigPublish
	OpINVSig
	// OpAcquire/OpRelease are queued lock operations; OpBarrier is a
	// global barrier; OpFlagSet/OpFlagWait are condition-flag operations.
	// All are served by the shared-cache synchronization controller
	// (Section III-D).
	OpAcquire
	OpRelease
	OpBarrier
	OpFlagSet
	OpFlagWait

	NumOpKinds
)

var opNames = [...]string{
	"load", "store", "loadu", "storeu", "compute",
	"wb", "inv", "wball", "invall",
	"wbcons", "invprod", "wbconsall", "invprodall",
	"dmacopy",
	"sigpublish", "invsig",
	"acquire", "release", "barrier", "flagset", "flagwait",
}

func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(k))
	}
	return opNames[k]
}

// IsSync reports whether the op is a synchronization operation, i.e. an
// epoch boundary in the sense of Section III-A.
func (k OpKind) IsSync() bool {
	switch k {
	case OpAcquire, OpRelease, OpBarrier, OpFlagSet, OpFlagWait:
		return true
	}
	return false
}

// Level selects how deep a WB pushes data or how deep an INV invalidates.
type Level int

const (
	// LevelAuto is the default: WB to the first shared cache (the block's
	// L2), INV from the private L1. The level-adaptive instructions
	// resolve to LevelAuto or LevelGlobal at run time via the ThreadMap.
	LevelAuto Level = iota
	// LevelGlobal pushes writebacks through to the last-level cache (L3)
	// and invalidates from both L1 and the block's L2 — the
	// WB_L3/INV_L2 instruction forms of Section V.
	LevelGlobal
)

func (l Level) String() string {
	if l == LevelGlobal {
		return "global"
	}
	return "auto"
}

// Op is one dynamic instruction. Only the fields relevant to Kind are
// meaningful.
type Op struct {
	Kind  OpKind
	Addr  mem.Addr  // load/store target
	Range mem.Range // WB/INV operand range
	Value mem.Word  // store value / flag value or threshold
	Level Level     // WB/INV target depth
	Peer  int       // ConsID/ProdID for level-adaptive ops
	ID    int       // lock/barrier/flag identifier
	// UseMEB asks the controller to satisfy a WB ALL from the Modified
	// Entry Buffer when the buffer has not overflowed.
	UseMEB bool
	// Lazy asks the controller to arm the Invalidated Entry Buffer
	// instead of performing an eager INV ALL.
	Lazy bool
	// Cycles is the compute duration for OpCompute.
	Cycles int64
}

func (o Op) String() string {
	switch o.Kind {
	case OpLoad, OpLoadU:
		return fmt.Sprintf("%s %#x", o.Kind, uint32(o.Addr))
	case OpStore, OpStoreU:
		return fmt.Sprintf("%s %#x <- %d", o.Kind, uint32(o.Addr), o.Value)
	case OpCompute:
		return fmt.Sprintf("compute %d", o.Cycles)
	case OpWB, OpINV:
		return fmt.Sprintf("%s %v %s", o.Kind, o.Range, o.Level)
	case OpWBAll:
		if o.UseMEB {
			return "wball(meb)"
		}
		return fmt.Sprintf("wball %s", o.Level)
	case OpINVAll:
		if o.Lazy {
			return "invall(lazy)"
		}
		return fmt.Sprintf("invall %s", o.Level)
	case OpWBCons, OpInvProd:
		return fmt.Sprintf("%s %v peer=%d", o.Kind, o.Range, o.Peer)
	case OpWBConsAll, OpInvProdAll:
		return fmt.Sprintf("%s peer=%d", o.Kind, o.Peer)
	case OpAcquire, OpRelease, OpBarrier, OpSigPublish, OpINVSig:
		return fmt.Sprintf("%s %d", o.Kind, o.ID)
	case OpFlagSet:
		return fmt.Sprintf("flagset %d <- %d", o.ID, o.Value)
	case OpFlagWait:
		return fmt.Sprintf("flagwait %d >= %d", o.ID, o.Value)
	case OpDMACopy:
		return fmt.Sprintf("dmacopy %v -> %#x block=%d", o.Range, uint32(o.Addr), o.Peer)
	}
	return fmt.Sprintf("op(%d)", int(o.Kind))
}
