package fuzzgen

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/litmus"
	"repro/internal/mem"
)

// Signature identifies a failure for shrinking: the shrinker only
// accepts a smaller candidate if it reproduces the same signature.
type Signature struct {
	// Kind is "violation" (oracle-flagged run), "diverge" (tri-engine
	// document mismatch), "error" (run failure), or "clean".
	Kind string
	// Class is the first violation's class when Kind == "violation".
	Class string
}

func (s Signature) String() string {
	if s.Class != "" {
		return s.Kind + ":" + s.Class
	}
	return s.Kind
}

// signatureOf classifies one check outcome.
func signatureOf(res CheckResult) Signature {
	switch {
	case res.Err != nil:
		return Signature{Kind: "error", Class: errorClass(res.Err)}
	case res.Diverged != "":
		return Signature{Kind: "diverge"}
	case len(res.Violations) > 0:
		return Signature{Kind: "violation", Class: string(res.Violations[0].Class)}
	}
	return Signature{Kind: "clean"}
}

// errorClass buckets a run error into a stable family, so shrinking an
// errored case cannot drift to an unrelated failure (a dropped lock
// acquire turning a DMA-reordering bug into a deadlock, say). The full
// error text carries run-specific detail (cycle counts) and cannot be
// the signature itself.
func errorClass(err error) string {
	s := err.Error()
	switch {
	case strings.Contains(s, "cross-block DMA"):
		return "dma-reorder"
	case strings.Contains(s, "deadlock"):
		return "deadlock"
	case strings.Contains(s, "livelock"):
		return "livelock"
	case strings.Contains(s, "panic"):
		return "panic"
	}
	return "other"
}

// stable runs the checker twice and reports the signature only if both
// runs agree byte for byte — the per-step determinism re-validation the
// shrinker relies on. A candidate whose two runs disagree is rejected
// outright (and would itself be a determinism bug worth a shrunk repro).
func stable(t litmus.Test, cfg litmus.Config) (Signature, bool) {
	a := Check(t, cfg)
	b := Check(t, cfg)
	sa, sb := signatureOf(a), signatureOf(b)
	if sa != sb || !bytes.Equal(a.OracleDoc, b.OracleDoc) {
		return Signature{}, false
	}
	return sa, true
}

// Shrink reduces t to a smaller program that still reproduces want
// under cfg: greedy linear delta debugging over instructions and
// threads, iterated to a fixpoint, followed by a canonicalization pass
// that compacts variables, registers, sync IDs, and store values. Every
// accepted step re-validates determinism (two identical check runs).
// The pass order is fixed, so the same input always shrinks to the same
// output — the property the campaign's reproducibility tests pin.
func Shrink(t litmus.Test, cfg litmus.Config, want Signature) litmus.Test {
	cur := t
	accept := func(cand litmus.Test) bool {
		if cand.Validate() != nil {
			return false
		}
		got, ok := stable(cand, cfg)
		return ok && got == want
	}

	// Unpack first: a line-per-variable repro is simpler to read and is
	// the layout the litmus suite (and its explorer) accepts.
	if cur.Packed {
		cand := cur
		cand.Packed = false
		if accept(cand) {
			cur = cand
		}
	}

	for changed := true; changed; {
		changed = false
		// Remove instructions, one at a time: threads in ascending
		// order, instructions from the back (so earlier indices stay
		// valid as the tail shrinks).
		for ti := 0; ti < len(cur.Threads); ti++ {
			for ii := len(cur.Threads[ti]) - 1; ii >= 0; ii-- {
				cand := removeInstr(cur, ti, ii)
				if accept(cand) {
					cur = cand
					changed = true
				}
			}
		}
		// Remove whole threads, from the back.
		for ti := len(cur.Threads) - 1; ti >= 0 && len(cur.Threads) > 1; ti-- {
			cand := removeThread(cur, ti)
			if accept(cand) {
				cur = cand
				changed = true
			}
		}
	}

	if cand := canonicalize(cur); accept(cand) {
		cur = cand
	}
	return cur
}

// removeInstr returns t without thread ti's instruction ii.
func removeInstr(t litmus.Test, ti, ii int) litmus.Test {
	out := t
	out.Threads = make([][]litmus.Instr, len(t.Threads))
	for i, th := range t.Threads {
		if i != ti {
			out.Threads[i] = th
			continue
		}
		ns := make([]litmus.Instr, 0, len(th)-1)
		ns = append(ns, th[:ii]...)
		ns = append(ns, th[ii+1:]...)
		out.Threads[i] = ns
	}
	return out
}

// removeThread returns t without thread ti.
func removeThread(t litmus.Test, ti int) litmus.Test {
	out := t
	out.Threads = make([][]litmus.Instr, 0, len(t.Threads)-1)
	for i, th := range t.Threads {
		if i != ti {
			out.Threads = append(out.Threads, th)
		}
	}
	return out
}

// canonicalize compacts the shrunk program: variables, registers, and
// sync IDs renumber in first-use order; store and flag values renumber
// 1, 2, 3, ... preserving equality (flag waits keep matching their
// sets); Final lists exactly the surviving variables. The caller
// re-checks the signature and discards the pass if it broke.
func canonicalize(t litmus.Test) litmus.Test {
	vars := map[litmus.VarID]litmus.VarID{}
	regs := map[litmus.Reg]litmus.Reg{}
	ids := map[int]int{}
	vals := map[mem.Word]mem.Word{}
	mapVar := func(v litmus.VarID) litmus.VarID {
		if n, ok := vars[v]; ok {
			return n
		}
		n := litmus.VarID(len(vars))
		vars[v] = n
		return n
	}
	mapReg := func(r litmus.Reg) litmus.Reg {
		if n, ok := regs[r]; ok {
			return n
		}
		n := litmus.Reg(len(regs))
		regs[r] = n
		return n
	}
	mapID := func(id int) int {
		if n, ok := ids[id]; ok {
			return n
		}
		n := len(ids)
		ids[id] = n
		return n
	}
	mapVal := func(v mem.Word) mem.Word {
		if n, ok := vals[v]; ok {
			return n
		}
		n := mem.Word(len(vals) + 1)
		vals[v] = n
		return n
	}

	out := t
	out.Threads = make([][]litmus.Instr, len(t.Threads))
	for ti, th := range t.Threads {
		ns := make([]litmus.Instr, len(th))
		for ii, in := range th {
			switch in.Kind {
			case litmus.ILoad:
				in.Var, in.Dst = mapVar(in.Var), mapReg(in.Dst)
			case litmus.IStore:
				in.Var, in.Val = mapVar(in.Var), mapVal(in.Val)
			case litmus.IWB, litmus.IINV, litmus.IPublish, litmus.IInvalidate:
				in.Var = mapVar(in.Var)
			case litmus.ISpin:
				in.Var, in.Val, in.Dst = mapVar(in.Var), mapVal(in.Val), mapReg(in.Dst)
			case litmus.IDMA:
				in.Var, in.Src = mapVar(in.Var), mapVar(in.Src)
			case litmus.IAcquire, litmus.IRelease, litmus.ICSEnter, litmus.ICSExit, litmus.IBarrierSync:
				in.ID = mapID(in.ID)
			case litmus.IFlagSet, litmus.IFlagWait, litmus.INotifyFlag, litmus.IAwaitFlag:
				in.ID, in.Val = mapID(in.ID), mapVal(in.Val)
			}
			ns[ii] = in
		}
		out.Threads[ti] = ns
	}
	out.Vars, out.Regs = len(vars), len(regs)
	out.Final = out.Final[:0:0]
	for v := 0; v < out.Vars; v++ {
		out.Final = append(out.Final, litmus.VarID(v))
	}
	return out
}

// Ops returns the program's instruction count — the "≤ N ops" measure of
// a shrunk repro.
func Ops(t litmus.Test) int {
	n := 0
	for _, th := range t.Threads {
		n += len(th)
	}
	return n
}

// ReproText renders a shrunk failure as a self-contained repro: a
// comment header naming the configuration and signature, then the test
// as a litmus-DSL composite literal ready to paste into a suite table.
func ReproText(t litmus.Test, cfg litmus.Config, want Signature) string {
	return fmt.Sprintf("// config %s, signature %s, %d ops\n%s\n", cfg.Name, want, Ops(t), litmus.Render(t))
}
