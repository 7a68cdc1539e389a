// Package faultinject provides deterministic, seed-addressed fault plans
// for the hardware-incoherent hierarchy. A plan names dynamic instruction
// indices at which the hierarchy misbehaves in a controlled way:
//
//	drop-wb@N    the Nth WB-family instruction does nothing (dirty words
//	             stay private until a later WB/INV/Drain covers them)
//	delay-wb@N   the Nth WB-family instruction parks its dirty words in
//	             the controller; they reach memory only when the
//	             hierarchy drains at the end of the run
//	skip-inv@N   the Nth INV-family instruction does nothing (stale lines
//	             survive; a lazy INV ALL does not arm the IEB)
//	meb-cap=K    the MEB silently discards clean→dirty records beyond K
//	             entries without raising its overflow bit, so a
//	             MEB-served WB ALL misses the discarded lines
//	ieb-lie@N    the Nth lookup that would lazily self-invalidate under
//	             an armed IEB pretends the line was already refreshed
//	seed=S       base seed for @rand indices
//
// Indices count dynamic instructions per hierarchy instance in execution
// order, which is deterministic under the engine; the same plan over the
// same workload therefore injects the same fault every run. An index may
// be spelled @rand, which resolves (at parse time, via SplitMix64 over
// the plan seed) to a pseudo-random index in [0, 256) — enough to land
// inside the steady state of every test-scale workload while keeping
// plans short.
//
// A Plan is pure data; a State threads one plan through a single run. The
// hierarchy consults the State at every public WB/INV entry point, and
// the coherence oracle replays the same decisions from its own cursor, so
// both sides agree on which instruction was sabotaged.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mem"
)

// WBAction is the fate of one WB-family instruction.
type WBAction int

const (
	// WBKeep executes the writeback normally.
	WBKeep WBAction = iota
	// WBDrop discards the writeback entirely.
	WBDrop
	// WBDelay parks the dirty words until the hierarchy drains.
	WBDelay
)

func (a WBAction) String() string {
	switch a {
	case WBDrop:
		return "drop"
	case WBDelay:
		return "delay"
	}
	return "keep"
}

// randIndexSpace bounds @rand index resolution; see the package comment.
const randIndexSpace = 256

// Plan is a parsed fault plan. The zero value injects nothing.
type Plan struct {
	// Seed is the @rand resolution seed (directive "seed=S").
	Seed uint64
	// DropWB and DelayWB hold WB-family instruction indices; an index in
	// both drops (drop wins).
	DropWB  []uint64
	DelayWB []uint64
	// SkipINV holds INV-family instruction indices.
	SkipINV []uint64
	// IEBLie holds armed-IEB lazy-invalidation decision indices.
	IEBLie []uint64
	// MEBCap, when positive, silently caps the MEB at that many entries.
	MEBCap int
}

// Empty reports whether the plan injects no faults at all.
func (p Plan) Empty() bool {
	return len(p.DropWB) == 0 && len(p.DelayWB) == 0 && len(p.SkipINV) == 0 &&
		len(p.IEBLie) == 0 && p.MEBCap == 0
}

// SplitMix64 is the standard 64-bit mixer; it gives @rand resolution
// (and the fuzz generator in internal/fuzzgen) a stable,
// dependency-free pseudo-random stream.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Parse parses a fault plan. Directives are separated by semicolons;
// whitespace around directives is ignored; an empty string (or only
// separators) is the empty plan. @rand indices resolve immediately, so
// the returned plan always carries concrete indices and round-trips
// through String.
func Parse(s string) (Plan, error) {
	var p Plan
	parts := strings.Split(s, ";")
	// Seed first: @rand in any directive resolves against it regardless
	// of where the seed= directive appears.
	for _, d := range parts {
		d = strings.TrimSpace(d)
		if v, ok := strings.CutPrefix(d, "seed="); ok {
			n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faultinject: bad seed %q", v)
			}
			p.Seed = n
		}
	}
	rng := p.Seed
	nextRand := func() uint64 {
		rng = SplitMix64(rng)
		return rng % randIndexSpace
	}
	index := func(v string) (uint64, error) {
		if v == "rand" {
			return nextRand(), nil
		}
		return strconv.ParseUint(v, 10, 64)
	}
	for _, d := range parts {
		d = strings.TrimSpace(d)
		if d == "" {
			continue
		}
		switch {
		case strings.HasPrefix(d, "seed="):
			// Handled in the first pass.
		case strings.HasPrefix(d, "drop-wb@"):
			i, err := index(d[len("drop-wb@"):])
			if err != nil {
				return Plan{}, fmt.Errorf("faultinject: bad directive %q", d)
			}
			p.DropWB = append(p.DropWB, i)
		case strings.HasPrefix(d, "delay-wb@"):
			i, err := index(d[len("delay-wb@"):])
			if err != nil {
				return Plan{}, fmt.Errorf("faultinject: bad directive %q", d)
			}
			p.DelayWB = append(p.DelayWB, i)
		case strings.HasPrefix(d, "skip-inv@"):
			i, err := index(d[len("skip-inv@"):])
			if err != nil {
				return Plan{}, fmt.Errorf("faultinject: bad directive %q", d)
			}
			p.SkipINV = append(p.SkipINV, i)
		case strings.HasPrefix(d, "ieb-lie@"):
			i, err := index(d[len("ieb-lie@"):])
			if err != nil {
				return Plan{}, fmt.Errorf("faultinject: bad directive %q", d)
			}
			p.IEBLie = append(p.IEBLie, i)
		case strings.HasPrefix(d, "meb-cap="):
			n, err := strconv.Atoi(strings.TrimSpace(d[len("meb-cap="):]))
			if err != nil || n <= 0 {
				return Plan{}, fmt.Errorf("faultinject: bad directive %q (want positive capacity)", d)
			}
			p.MEBCap = n
		default:
			return Plan{}, fmt.Errorf("faultinject: unknown directive %q", d)
		}
	}
	p.normalize()
	return p, nil
}

// MustParse is Parse for known-good literals (tests, experiment tables).
func MustParse(s string) Plan {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// normalize sorts and dedupes every index list so String is canonical.
func (p *Plan) normalize() {
	dedupe := func(xs []uint64) []uint64 {
		if len(xs) == 0 {
			return nil
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		out := xs[:1]
		for _, x := range xs[1:] {
			if x != out[len(out)-1] {
				out = append(out, x)
			}
		}
		return out
	}
	p.DropWB = dedupe(p.DropWB)
	p.DelayWB = dedupe(p.DelayWB)
	p.SkipINV = dedupe(p.SkipINV)
	p.IEBLie = dedupe(p.IEBLie)
}

// String renders the plan in canonical directive form: indices sorted and
// deduped, directive classes in a fixed order, seed last. Parse(p.String())
// reproduces p exactly.
func (p Plan) String() string {
	var parts []string
	add := func(prefix string, xs []uint64) {
		for _, x := range xs {
			parts = append(parts, fmt.Sprintf("%s@%d", prefix, x))
		}
	}
	q := p
	q.normalize()
	add("drop-wb", q.DropWB)
	add("delay-wb", q.DelayWB)
	add("skip-inv", q.SkipINV)
	add("ieb-lie", q.IEBLie)
	if q.MEBCap > 0 {
		parts = append(parts, fmt.Sprintf("meb-cap=%d", q.MEBCap))
	}
	if q.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", q.Seed))
	}
	return strings.Join(parts, "; ")
}

// State threads one plan through a single run. The hierarchy advances the
// instruction cursors; the oracle replays the WB decisions from its own
// cursor over the identical deterministic instruction sequence. State is
// not safe for concurrent use — each run owns its own instance, like its
// hierarchy.
type State struct {
	plan  Plan
	drop  map[uint64]bool
	delay map[uint64]bool
	skip  map[uint64]bool
	lie   map[uint64]bool

	wbN, invN, iebN uint64 // hierarchy-side instruction cursors
	oracleWBN       uint64 // oracle-side WB cursor

	// mebLost holds lines whose clean→dirty record the faulty MEB
	// silently discarded since the last WB ALL; lastMEBMiss hands the set
	// of a MEB-served WB ALL's missed lines to the oracle.
	mebLost     map[mem.Addr]bool
	lastMEBMiss map[mem.Addr]bool

	// Injection counters, for reports and tests.
	Drops, Delays, Skips, Lies, MEBDiscards int64
}

// NewState builds the per-run fault state for plan p.
func NewState(p Plan) *State {
	set := func(xs []uint64) map[uint64]bool {
		m := make(map[uint64]bool, len(xs))
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	return &State{
		plan:  p,
		drop:  set(p.DropWB),
		delay: set(p.DelayWB),
		skip:  set(p.SkipINV),
		lie:   set(p.IEBLie),
	}
}

// Plan returns the plan the state was built from.
func (s *State) Plan() Plan { return s.plan }

// wbActionAt is the pure index→action function both sides replay.
func (s *State) wbActionAt(i uint64) WBAction {
	switch {
	case s.drop[i]:
		return WBDrop
	case s.delay[i]:
		return WBDelay
	}
	return WBKeep
}

// NextWB advances the hierarchy's WB-family cursor and returns the fate
// of the instruction at it.
func (s *State) NextWB() WBAction {
	a := s.wbActionAt(s.wbN)
	s.wbN++
	switch a {
	case WBDrop:
		s.Drops++
	case WBDelay:
		s.Delays++
	}
	return a
}

// OracleNextWB advances the oracle's WB-family cursor; it must observe
// the same instruction sequence as the hierarchy.
func (s *State) OracleNextWB() WBAction {
	a := s.wbActionAt(s.oracleWBN)
	s.oracleWBN++
	return a
}

// NextINV advances the INV-family cursor and reports whether the
// instruction at it is skipped.
func (s *State) NextINV() bool {
	skip := s.skip[s.invN]
	s.invN++
	if skip {
		s.Skips++
	}
	return skip
}

// NextIEBLie advances the lazy-invalidation decision cursor and reports
// whether the armed-IEB lookup at it falsely claims the line was already
// refreshed.
func (s *State) NextIEBLie() bool {
	lie := s.lie[s.iebN]
	s.iebN++
	if lie {
		s.Lies++
	}
	return lie
}

// MEBOverCap reports whether a clean→dirty record must be silently
// discarded: the faulty capacity is active, the frame is not already
// recorded, and the buffer already holds cap entries.
func (s *State) MEBOverCap(entries int, present bool) bool {
	return s.plan.MEBCap > 0 && !present && entries >= s.plan.MEBCap
}

// NoteMEBLost records a line whose MEB record was silently discarded.
func (s *State) NoteMEBLost(line mem.Addr) {
	if s.mebLost == nil {
		s.mebLost = make(map[mem.Addr]bool)
	}
	s.mebLost[line] = true
	s.MEBDiscards++
}

// FlushMEBLost moves the discarded-line set into the slot the oracle
// reads at the corresponding MEB-served WB ALL event.
func (s *State) FlushMEBLost() {
	s.lastMEBMiss = s.mebLost
	s.mebLost = nil
}

// ClearMEBLost forgets the discarded lines without handing them to the
// oracle — a full-traversal WB ALL covered them anyway.
func (s *State) ClearMEBLost() {
	s.mebLost = nil
}

// TakeMEBMiss consumes the lines the last MEB-served WB ALL missed (nil
// when none).
func (s *State) TakeMEBMiss() map[mem.Addr]bool {
	m := s.lastMEBMiss
	s.lastMEBMiss = nil
	return m
}

// Injected reports the total number of faults the run actually injected.
func (s *State) Injected() int64 {
	return s.Drops + s.Delays + s.Skips + s.Lies + s.MEBDiscards
}
