package compiler

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/oracle"
)

// Reference executes prog sequentially over host arrays and returns the
// final contents of every array. It defines the correct result that every
// mode's parallel execution must reproduce (all reductions in this IR are
// commutative uint32 sums, so parallel merge order cannot change the
// outcome).
func Reference(prog *Program) map[string][]mem.Word {
	arrays := make(map[string][]mem.Word, len(prog.Arrays))
	for name, a := range prog.Arrays {
		arrays[name] = make([]mem.Word, a.Len)
	}
	var run func(stmts []Stmt)
	run = func(stmts []Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *Loop:
				for i := s.Lo; i < s.Hi; i++ {
					read := func(r int) mem.Word {
						rd := &s.Reads[r]
						elem := rd.At(i)
						if rd.Indirect {
							elem = int(arrays[rd.IndexArray][rd.IndexAt(i)])
						}
						return arrays[rd.Array][elem]
					}
					vals := s.Body(i, read)
					if s.Reduction != nil {
						arrays[s.Reduction.Array][s.Reduction.At(i)] += vals[0]
					} else {
						for w, v := range vals {
							arrays[s.Writes[w].Array][s.Writes[w].At(i)] = v
						}
					}
				}
			case *TimeLoop:
				for it := 0; it < s.Iters; it++ {
					run(s.Body)
				}
			default:
				panic(fmt.Sprintf("compiler: unknown statement %T", s))
			}
		}
	}
	run(prog.Stmts)
	return arrays
}

// IRWorkload is a Model 2 benchmark: an IR program plus its verification.
type IRWorkload struct {
	Name    string
	Prog    *Program
	Threads int
	// SkipVerify lists arrays whose final contents are schedule-dependent
	// and should not be compared (none of the shipped programs need it;
	// it exists for experiments).
	SkipVerify map[string]bool
}

// Run lowers the workload under mode, executes it on h, drains, and
// verifies every array against the sequential reference.
func (w *IRWorkload) Run(h engine.Hierarchy, mode Mode) (*engine.Result, error) {
	return w.RunChecked(context.Background(), h, mode, nil)
}

// RunChecked is Run with cooperative cancellation and an optional
// coherence oracle observing the event stream; an oracle violation
// becomes the run's primary error.
func (w *IRWorkload) RunChecked(ctx context.Context, h engine.Hierarchy, mode Mode, orc *oracle.Oracle) (*engine.Result, error) {
	return w.RunObserved(ctx, h, mode, orc, nil)
}

// RunObserved is RunChecked with an optional observability recorder fed
// by the engine (per-core stall spans); attach the recorder to the
// hierarchy separately (obs.Attach) for component metrics.
func (w *IRWorkload) RunObserved(ctx context.Context, h engine.Hierarchy, mode Mode, orc *oracle.Oracle, rec *obs.Recorder) (*engine.Result, error) {
	e := engine.New(h, Lower(w.Prog, w.Threads, mode))
	if orc != nil {
		e.SetObserver(orc)
	}
	if rec != nil {
		e.SetRecorder(rec)
	}
	res, err := e.RunCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", w.Name, mode, err)
	}
	h.Drain()
	var errs []error
	if orc != nil {
		orc.CheckFinal(h.Memory())
		if cerr := orc.Err(); cerr != nil {
			errs = append(errs, fmt.Errorf("%s/%s: %w", w.Name, mode, cerr))
		}
	}
	if verr := w.VerifyMemory(h.Memory()); verr != nil {
		errs = append(errs, fmt.Errorf("%s/%s: verification: %w", w.Name, mode, verr))
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return res, nil
}

// VerifyMemory checks the drained memory against the sequential reference.
func (w *IRWorkload) VerifyMemory(m *mem.Memory) error {
	ref := Reference(w.Prog)
	// Check arrays in name order so a failed run always reports the same
	// mismatch: the message lands in the canonical run record.
	for _, name := range slices.Sorted(maps.Keys(ref)) {
		if w.SkipVerify[name] {
			continue
		}
		arr := w.Prog.Arrays[name]
		for i, v := range ref[name] {
			if got := m.ReadWord(arr.At(i)); got != v {
				return fmt.Errorf("array %q element %d = %d, want %d", name, i, got, v)
			}
		}
	}
	return nil
}
