package isa

import "repro/internal/mem"

// Deps is the dependence relation used by the source-DPOR litmus
// explorer. Compute commutes with everything; ops with static footprints
// conflict when their footprints share a cache line (line granularity,
// because WB/INV and fills move whole lines); whole-cache flushes, DMA
// and signature ops conflict with every other memory op. Two
// refinements make the relation sound and tight:
//
//   - It is *sound under evictions*. Line-disjointness alone breaks when
//     a fill in one thread evicts a line another thread's op touches:
//     the two ops then interact through the victim even though their
//     declared footprints are disjoint. Deps therefore treats any two
//     lines that map to the same set of any cache in the hierarchy as
//     conflicting — an op can only displace lines from the sets it
//     touches, so set-disjoint ops cannot interact through capacity
//     evictions at any level, private or shared. MinSets is the
//     smallest set count among the machine's caches; two lines conflict
//     in *some* cache exactly when their line numbers are congruent mod
//     that minimum (set counts are powers of two, so congruence mod a
//     larger set count implies congruence mod a smaller one).
//
//   - It is *fine on synchronization*. Sync ops touch only the hwsync
//     controller (plus the issuing core's own epoch state), never caches
//     or memory, so a sync op commutes with every memory op of another
//     thread; and two sync ops commute unless they target the same
//     primitive — the same lock, the same flag, or the same barrier.
//     This is what makes multi-pair tests tractable: disjoint
//     producer/consumer pairs on different flags do not serialize
//     against each other.
type Deps struct {
	// MinSets is the minimum number of sets over all caches of the
	// machine the schedules run on. Zero disables the set-conflict
	// refinement and falls back to plain line-disjointness, which is
	// only sound for runs that perform no evictions.
	MinSets int
}

// Independent reports whether two ops from different threads commute
// under d: executing them in either adjacent order yields the same
// machine, controller, and oracle state.
func (d Deps) Independent(a, b Op) bool {
	if a.PureLocal() || b.PureLocal() {
		return true
	}
	sa, sb := a.Kind.IsSync(), b.Kind.IsSync()
	if sa != sb {
		// Sync ops touch the controller and the issuing core's own
		// epoch state; memory ops touch caches and memory. Disjoint.
		return true
	}
	if sa {
		return syncGroup(a.Kind) != syncGroup(b.Kind) || a.ID != b.ID
	}
	ra, oka := a.Footprint()
	rb, okb := b.Footprint()
	if !oka || !okb {
		return false
	}
	la, lb := lineSpan(ra), lineSpan(rb)
	if la.Overlaps(lb) {
		return false
	}
	if d.MinSets <= 0 {
		return true
	}
	return !setConflict(la, lb, d.MinSets)
}

// syncGroup partitions sync kinds by the controller structure they
// touch: locks, flags, or barriers. Ops in different groups never share
// state even when their IDs collide (the controller keeps separate maps).
func syncGroup(k OpKind) int {
	switch k {
	case OpAcquire, OpRelease:
		return 0
	case OpFlagSet, OpFlagWait:
		return 1
	default: // OpBarrier
		return 2
	}
}

// setConflict reports whether any line of a maps to the same cache set
// as any line of b in a cache with sets sets. Spans are at most a few
// lines in litmus programs, so the nested scan is fine.
func setConflict(a, b mem.Range, sets int) bool {
	for la := a.Base; la < a.End(); la += mem.LineBytes {
		for lb := b.Base; lb < b.End(); lb += mem.LineBytes {
			if (uint32(la)/mem.LineBytes)%uint32(sets) == (uint32(lb)/mem.LineBytes)%uint32(sets) {
				return true
			}
		}
	}
	return false
}

// lineSpan widens a range to full line granularity.
func lineSpan(r mem.Range) mem.Range {
	if r.Empty() {
		return r
	}
	base := mem.LineAddr(r.Base)
	end := mem.LineAddr(r.End()-1) + mem.LineBytes
	return mem.Range{Base: base, Bytes: uint32(end - base)}
}
