package compiler

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/workload"
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
}

// Cell returns the verified run of the workload lowered under mode on h.
func (w *IRWorkload) Cell(h engine.Hierarchy, mode Mode) workload.Cell {
	return workload.Cell{Label: w.Name + "/" + mode.String(), H: h, Guests: Lower(w.Prog, w.Threads, mode), Verify: w.VerifyMemory}
}

// Run lowers the workload under mode, executes it on h, drains, and
// verifies every array against the sequential reference.
func (w *IRWorkload) Run(h engine.Hierarchy, mode Mode) (*engine.Result, error) {
	return w.Cell(h, mode).Run(context.Background())
}

// VerifyMemory checks the drained memory against the sequential reference.
func (w *IRWorkload) VerifyMemory(m *mem.Memory) error {
	ref := Reference(w.Prog)
	// Check arrays in name order so a failed run always reports the same
	// mismatch: the message lands in the canonical run record.
	for _, name := range slices.Sorted(maps.Keys(ref)) {
		arr := w.Prog.Arrays[name]
		for i, v := range ref[name] {
			if got := m.ReadWord(arr.At(i)); got != v {
				return fmt.Errorf("array %q element %d = %d, want %d", name, i, got, v)
			}
		}
	}
	return nil
}
