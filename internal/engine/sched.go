package engine

import (
	"fmt"

	"repro/internal/isa"
)

// Candidate describes one runnable thread at a scheduling decision point:
// its ID, its local clock, and the operation it will execute if chosen.
// Schedule explorers use the pending op to reason about independence of
// adjacent steps (partial-order reduction) without re-deriving guest state.
type Candidate struct {
	Thread int
	Time   int64
	Op     isa.Op
}

// Scheduler replaces the engine's default (time, thread-ID) scheduling
// policy with an externally chosen thread order. At every step the engine
// presents the runnable threads — in ascending thread-ID order — and the
// scheduler returns the index of the thread to execute next. Returning a
// negative index aborts the run with a *ScheduleAbortError (this is how
// bounded explorers cut off schedules past their step budget).
//
// Install with SetScheduler before Run/RunCtx. The run remains fully
// deterministic: identical Pick answers reproduce identical executions,
// which is what lets litmus explorers replay a schedule prefix exactly.
type Scheduler interface {
	Pick(cands []Candidate) int
}

// SetScheduler installs s as the run's scheduling policy (nil restores the
// default minimum-local-clock order). Call before Run; installing a
// scheduler mid-run is not supported.
func (e *Engine) SetScheduler(s Scheduler) { e.sched = s }

// MinTimeScheduler replays the engine's default scheduling policy —
// minimum local clock, thread-ID tie-break — through the external
// scheduler interface. Installing it replaces the run queue with a scan
// of the ready threads and turns the private-op fast path off, while
// executing the exact op order of the default run. That makes it the
// serial reference of differential tests: results must be byte-identical
// to the schedulerless run.
type MinTimeScheduler struct{}

// Pick returns the first candidate with the minimal local clock; the
// candidate list arrives in ascending thread-ID order, so ties resolve
// to the lowest thread ID, matching the run queue.
func (MinTimeScheduler) Pick(cands []Candidate) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Time < cands[best].Time {
			best = i
		}
	}
	return best
}

// ScheduleAbortError reports a run cut off by its Scheduler returning a
// negative pick — typically a schedule explorer's step budget.
type ScheduleAbortError struct {
	// Pick is the negative value the scheduler returned.
	Pick int
	// Step is the scheduling decision index at which the run stopped.
	Step int64
}

func (e *ScheduleAbortError) Error() string {
	return fmt.Sprintf("engine: run aborted by scheduler (pick %d at decision %d)", e.Pick, e.Step)
}

// ErrorKind labels the failure for the runner's error taxonomy.
func (e *ScheduleAbortError) ErrorKind() string { return "sched-abort" }

// pick returns the thread the external scheduler picks among the ready
// ones, offering each with the head of its op ring. A ready thread whose
// ring is empty is resumed until it deposits an op, as nextOp would, and
// marked done if its guest has returned instead. A nil thread means no
// thread is runnable (completion or deadlock, decided by the caller)
// unless pickErr is set.
func (e *Engine) pick() *thread {
	e.cands = e.cands[:0]
	for _, t := range e.ts {
		if t.state != ready {
			continue
		}
		for t.pipe.empty() && !t.finished {
			t.co.resume()
		}
		op := t.pipe.peek()
		if op == nil {
			t.state = done
			e.progressed = true
			continue
		}
		e.cands = append(e.cands, Candidate{Thread: t.id, Time: t.time, Op: *op})
	}
	if len(e.cands) == 0 {
		return nil
	}
	e.decision++
	i := e.sched.Pick(e.cands)
	switch {
	case i < 0:
		e.pickErr = &ScheduleAbortError{Pick: i, Step: e.decision - 1}
		return nil
	case i >= len(e.cands):
		e.pickErr = fmt.Errorf("engine: scheduler picked %d of %d candidates", i, len(e.cands))
		return nil
	}
	return e.ts[e.cands[i].Thread]
}
