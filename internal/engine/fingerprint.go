package engine

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// fingerprinter is implemented by components that can hash their
// complete behavioral state: both hierarchies (core.Hierarchy and
// mesi.Hierarchy) and the coherence oracle. A hierarchy or observer
// without it makes StateFingerprint report ok=false.
type fingerprinter interface {
	Fingerprint() uint64
}

// referenceFingerprinter is implemented by the components whose
// Fingerprint has a differential reference (core.Hierarchy and
// oracle.Oracle); see ReferenceStateFingerprint.
type referenceFingerprinter interface {
	ReferenceFingerprint() uint64
}

// StateFingerprint hashes the complete state of the running machine at a
// Scheduler's decision: the hierarchy, the sync controller, and every
// thread's continuation state. It returns ok=false when the hierarchy
// cannot fingerprint itself.
//
// Guest continuation state is a closure and cannot be hashed directly,
// but it does not need to be: a guest is a deterministic function of the
// sequence of values the engine has delivered to it (loads are the only
// ops that return data, and litmus guests branch only on loaded values),
// so the per-thread rolling history hash of completed ops (see
// thread.completed) — plus the head of a ready thread's op ring, which
// pick has filled and offered as its candidate, the blocked op, and the
// local clock — pins the continuation exactly. Ops deposited behind the
// ring head follow from the same history, so they need no hashing. The
// scheduling-decision count is folded in too, so states at different
// depths never alias and a fingerprint can never match one of its own
// ancestors.
func (e *Engine) StateFingerprint() (uint64, bool) {
	hf, ok := e.h.(fingerprinter)
	if !ok {
		return 0, false
	}
	h := hf.Fingerprint()
	// Verdicts come from the observer's shadow state (the coherence
	// oracle), so two machine states are only interchangeable if their
	// observers match too. An observer that cannot fingerprint itself
	// makes the whole state unhashable.
	if e.obs != nil {
		of, ok := e.obs.(fingerprinter)
		if !ok {
			return 0, false
		}
		h = mem.Mix64(h, of.Fingerprint())
	}
	return e.foldThreads(mem.Mix64(h, e.ctrl.Fingerprint())), true
}

// ReferenceStateFingerprint is StateFingerprint over the components'
// reference fingerprints: the differential reference the litmus
// package's FuzzStateFingerprintMatchesReference checks StateFingerprint
// against (two states' fingerprints must be equal exactly when their
// reference fingerprints are). It returns ok=false when the hierarchy
// or the observer has no reference. No simulation path calls it.
func (e *Engine) ReferenceStateFingerprint() (uint64, bool) {
	hf, ok := e.h.(referenceFingerprinter)
	if !ok {
		return 0, false
	}
	h := hf.ReferenceFingerprint()
	if e.obs != nil {
		of, ok := e.obs.(referenceFingerprinter)
		if !ok {
			return 0, false
		}
		h = mem.Mix64(h, of.ReferenceFingerprint())
	}
	return e.foldThreads(mem.Mix64(h, e.ctrl.ReferenceFingerprint())), true
}

// foldThreads folds the decision count and every thread's continuation
// state into h.
func (e *Engine) foldThreads(h uint64) uint64 {
	h = mem.Mix64(h, uint64(e.decision))
	for _, t := range e.ts {
		h = mem.Mix64(h, uint64(t.state))
		h = mem.Mix64(h, uint64(t.time))
		h = mem.Mix64(h, t.histHash)
		switch t.state {
		case ready:
			var head isa.Op
			if op := t.pipe.peek(); op != nil {
				head = *op
			}
			h = hashOp(h, head)
		case blocked:
			h = hashOp(h, t.cur)
		}
	}
	return h
}

func hashOp(h uint64, op isa.Op) uint64 {
	h = mem.Mix64(h, uint64(op.Kind))
	h = mem.Mix64(h, uint64(op.Addr))
	h = mem.Mix64(h, uint64(op.Range.Base))
	h = mem.Mix64(h, uint64(op.Range.Bytes))
	h = mem.Mix64(h, uint64(op.Value))
	h = mem.Mix64(h, uint64(op.Level))
	h = mem.Mix64(h, uint64(op.Peer))
	h = mem.Mix64(h, uint64(op.ID))
	var flags uint64
	if op.UseMEB {
		flags |= 1
	}
	if op.Lazy {
		flags |= 2
	}
	h = mem.Mix64(h, flags)
	return mem.Mix64(h, uint64(op.Cycles))
}
