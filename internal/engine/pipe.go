package engine

import "repro/internal/isa"

// pipeCap is the op ring depth: how far a guest may run ahead of the
// scheduler depositing fire-and-forget ops between loads. A power of two
// (the ring indexes with a modulo the compiler reduces to a mask). Under
// the private-op fast path, L1 hits and compute run inline and never
// enter the ring, so it holds only the ops that reach the scheduler:
// misses, WB/INV and sync. 64 of those still make a long burst per
// coroutine switch, and the ring is most of a thread's footprint, which
// a 1024-core machine pays 1024 times.
const pipeCap = 64

// opPipe is the per-thread operation ring between a guest coroutine
// (producer) and the scheduler (consumer). Control moves between the two
// by direct coroutine switch (iter.Pull, see guestSeq) — they never run
// concurrently — so the ring is plain memory: push and pop are an index
// compare and a slot move, no atomics, no parking. A full ring makes the
// guest yield back to the scheduler (see proc.do); the guest is only ever
// resumed once its ring has drained, so the retried push always lands.
type opPipe struct {
	head uint64
	tail uint64
	buf  [pipeCap]isa.Op
}

// tryPush appends op, reporting false when the ring is full (the guest
// must yield so the scheduler can drain it).
func (p *opPipe) tryPush(op isa.Op) bool {
	if p.tail-p.head == pipeCap {
		return false
	}
	p.buf[p.tail%pipeCap] = op
	p.tail++
	return true
}

// empty reports whether every deposited op has been popped.
func (p *opPipe) empty() bool { return p.tail == p.head }

// peek returns the next op without removing it, or nil when the ring is
// empty.
func (p *opPipe) peek() *isa.Op {
	if p.tail == p.head {
		return nil
	}
	return &p.buf[p.head%pipeCap]
}

// tryPop removes the next op, reporting false when the ring is empty.
// The returned pointer aliases the ring slot: it stays valid until the
// producer has been resumed and deposited pipeCap further ops, which
// under the alternating control transfer means it is stable for the
// whole of the current scheduler step.
func (p *opPipe) tryPop() (*isa.Op, bool) {
	if p.tail == p.head {
		return nil, false
	}
	op := &p.buf[p.head%pipeCap]
	p.head++
	return op, true
}
