package litmus

import (
	"fmt"

	"repro/internal/annotate"
	"repro/internal/engine"
	"repro/internal/mem"
)

// varBase is where the shared-variable arena starts; each variable owns
// one full cache line so distinct variables never share a line (a
// precondition of the explorer's independence pruning) and sequential
// lines land in sequential sets (so tiny tests never conflict-miss).
// Packed tests instead lay variables out word-by-word from the same
// base, deliberately sharing lines.
const varBase = mem.Addr(0x10000)

// AddrOf returns the address of variable v under the test's layout.
func (t Test) AddrOf(v VarID) mem.Addr {
	if t.Packed {
		return varBase + mem.Addr(v)*mem.WordBytes
	}
	return varBase + mem.Addr(v)*mem.LineBytes
}

// VarOfAddr is the inverse of AddrOf: the variable whose word address is
// a, if any. Violation addresses are word-granular, so the mapping is
// exact under both layouts.
func (t Test) VarOfAddr(a mem.Addr) (VarID, bool) {
	if a < varBase {
		return 0, false
	}
	off := a - varBase
	step := mem.Addr(mem.LineBytes)
	if t.Packed {
		step = mem.WordBytes
	}
	if off%step != 0 {
		return 0, false
	}
	v := VarID(off / step)
	if int(v) >= t.Vars {
		return 0, false
	}
	return v, true
}

// rangeOf returns the one-word range of variable v.
func (t Test) rangeOf(v VarID) mem.Range { return mem.WordRange(t.AddrOf(v), 1) }

// lineOf returns the full cache line of variable v: the DMA engine works
// in whole lines, so IDMA transfers the variable's entire (private) line.
func (t Test) lineOf(v VarID) mem.Range {
	return mem.Range{Base: mem.LineAddr(t.AddrOf(v)), Bytes: mem.LineBytes}
}

// Guests lowers the test's threads to engine guests under cfg. The regs
// slice receives observation-register writes; the engine never runs two
// guests at once, so sharing it is safe.
func Guests(t Test, cfg Config, regs []mem.Word) []engine.Guest {
	gs := make([]engine.Guest, len(t.Threads))
	for i := range t.Threads {
		gs[i] = func(ep engine.Proc) { runThread(ep, &t, &cfg, i, regs) }
	}
	return gs
}

// runThread runs thread i of t on ep. The annotated view lives in this
// frame, so a replay's guests allocate nothing.
func runThread(ep engine.Proc, t *Test, cfg *Config, i int, regs []mem.Word) {
	p := annotate.Wrap(ep, cfg.Ann, annotate.Pattern{OCC: t.OCC})
	for j := range t.Threads[i] {
		exec(p, t, cfg, &t.Threads[i][j], regs)
	}
}

// exec runs one litmus instruction on thread p.
func exec(p *annotate.P, t *Test, cfg *Config, in *Instr, regs []mem.Word) {
	a := t.AddrOf(in.Var)
	r := t.rangeOf(in.Var)
	switch in.Kind {
	case ILoad:
		regs[in.Dst] = p.Load(a)
	case IStore:
		p.Store(a, in.Val)
	case ICompute:
		p.Compute(int64(in.Val))
	case IWB:
		p.WB(r)
	case IINV:
		p.INV(r)
	case IPublish:
		switch {
		case cfg.Adaptive:
			p.WBCons(r, in.Peer)
		case cfg.Ann.UseMEB:
			p.WBAllMEB()
		default:
			p.WB(r)
		}
	case IInvalidate:
		switch {
		case cfg.Adaptive:
			p.InvProd(r, in.Peer)
		case cfg.Ann.UseIEB:
			p.INVAllLazy()
		default:
			p.INV(r)
		}
	case ISpin:
		for i := 0; i < in.N; i++ {
			p.INV(r)
			v := p.Load(a)
			regs[in.Dst] = v
			if v == in.Val {
				break
			}
		}
	case IAcquire:
		p.Acquire(in.ID)
	case IRelease:
		p.Release(in.ID)
	case IFlagSet:
		p.FlagSet(in.ID, int64(in.Val))
	case IFlagWait:
		p.FlagWait(in.ID, int64(in.Val))
	case ICSEnter:
		p.CSEnter(in.ID)
	case ICSExit:
		p.CSExit(in.ID)
	case INotifyFlag:
		p.NotifyFlag(in.ID, int64(in.Val))
	case IAwaitFlag:
		p.AwaitFlag(in.ID, int64(in.Val))
	case IBarrierSync:
		p.BarrierSync(in.ID)
	case IDMA:
		p.DMACopy(a, t.lineOf(in.Src), in.Peer)
	default:
		panic(fmt.Sprintf("litmus: unknown instruction kind %v", in.Kind))
	}
}
