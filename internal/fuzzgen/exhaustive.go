package fuzzgen

import (
	"fmt"

	"repro/internal/litmus"
	"repro/internal/mem"
	"repro/internal/oracle"
)

// MaskProvenExhaustive: the DPOR explorer covered the mutant's entire
// schedule space and no schedule violated — the dropped annotation is
// provably unobservable, not merely benign on one schedule. This is the
// strongest mask claim and the only one JudgeExhaustive issues.
const MaskProvenExhaustive = "masked-exhaustive"

// JudgeExhaustive judges mutant m of parent p under cfg by exhaustive
// DPOR exploration instead of the single deterministic schedule Judge
// runs: Detected iff any schedule violates (attributed to the mutation
// site exactly as Judge attributes), and an undetected mutant is proven
// masked (MaskProvenExhaustive). A non-exhaustive exploration (error,
// truncation, or the schedule cap) is a judgment failure, never a mask.
func JudgeExhaustive(p Program, m Mutant, cfg litmus.Config, opts litmus.Options) Verdict {
	rep, err := litmus.Explore(m.Test, cfg, opts)
	if err != nil {
		return Verdict{Err: err}
	}
	if rep.ErrorRuns > 0 || rep.Truncated > 0 || rep.Capped {
		return Verdict{Err: fmt.Errorf("fuzzgen %s: exploration not exhaustive (%d errors, %d truncated, capped=%v)",
			m.Test.Name, rep.ErrorRuns, rep.Truncated, rep.Capped)}
	}
	if rep.ViolationSchedules > 0 {
		vs := reportViolations(rep)
		v := Verdict{Detected: true, Violations: vs}
		v.BadAttribution = attribute(p, m.Site, vs)
		return v
	}
	return Verdict{MaskReason: MaskProvenExhaustive}
}

// reportViolations reconstructs oracle-level violation records from the
// report's kept entries — the fields attribute() inspects (class,
// address, reader, writer) round-trip through ViolationInfo.
func reportViolations(rep *litmus.Report) []oracle.Violation {
	out := make([]oracle.Violation, 0, len(rep.Violations))
	for _, vi := range rep.Violations {
		out = append(out, oracle.Violation{
			Class:  oracle.Class(vi.Class),
			Addr:   mem.Addr(vi.Addr),
			Reader: vi.Reader,
			Writer: vi.Writer,
		})
	}
	return out
}

// enumMutationClass maps an annotated sync kind to its weakening class.
var enumMutationClass = map[litmus.InstrKind]struct {
	class string
	side  Side
}{
	litmus.INotifyFlag: {"weaken-notify", SideWB},
	litmus.ICSExit:     {"weaken-csexit", SideWB},
	litmus.IAwaitFlag:  {"weaken-await", SideINV},
	litmus.ICSEnter:    {"weaken-csenter", SideINV},
}

// EnumeratedMutants adapts an enumerated test (litmus.Enumerate) into
// judged mutants: one per annotated sync instruction, each carrying the
// site coordinates JudgeExhaustive needs for attribution. Wrap the
// parent in Program{Test: t} when judging.
func EnumeratedMutants(t litmus.Test) []Mutant {
	var ms []Mutant
	for ti, th := range t.Threads {
		for ii, in := range th {
			mc, ok := enumMutationClass[in.Kind]
			if !ok {
				continue
			}
			s := Site{Thread: ti, Index: ii, Class: mc.class, Side: mc.side}
			ms = append(ms, Mutant{Site: s, Test: mutate(t, s)})
		}
	}
	return ms
}
