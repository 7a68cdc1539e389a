package litmus

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/levels"
	"repro/internal/oracle"
	"repro/internal/topo"
)

// fingerprintPrograms is every enumerated program of up to four ops,
// the input space of FuzzStateFingerprintMatchesReference. Four, not
// three: an exhaustive search over every schedule of every program of up
// to three ops found no two states that differ only in a cache's LRU
// order, so a fingerprint that ignored it would pass on them.
var fingerprintPrograms = sync.OnceValue(func() []Test { return Enumerate(DefaultEnumOptions(4)) })

// programIndex returns the index of the enumerated program named name.
func programIndex(name string) uint16 {
	return uint16(slices.IndexFunc(fingerprintPrograms(), func(t Test) bool { return t.Name == name }))
}

// fingerprintHierarchy builds the machine the fuzz target explores on:
// the litmus hierarchy, or (tiny) one whose caches have a single set, so
// that every line conflicts with every other and LRU order, eviction
// and refill all show up in the states compared.
func fingerprintHierarchy(cfg Config, tiny bool) *core.Hierarchy {
	if !tiny {
		return litmusHierarchy(cfg)
	}
	return core.New(topo.NewCustom(1, litmusCores, 0, topo.DefaultParams()), core.Config{
		Config: levels.Config{
			L1: cache.Config{Bytes: 2 * 64, Ways: 2},
			L2: cache.Config{Bytes: 4 * 64, Ways: 4},
		},
		MEBEntries: cfg.MEBEntries,
		IEBEntries: cfg.IEBEntries,
	})
}

// fpPartition checks that two fingerprint functions partition states the
// same way: it maps each side's values to the other side's and fails on
// the first value that would map to two.
type fpPartition struct {
	name          string
	byNew, byRef  map[uint64]uint64
	newFP, refFP  func() uint64
	firstNewState map[uint64]string
}

func newFPPartition(name string, newFP, refFP func() uint64) *fpPartition {
	return &fpPartition{name: name, byNew: map[uint64]uint64{}, byRef: map[uint64]uint64{},
		newFP: newFP, refFP: refFP, firstNewState: map[uint64]string{}}
}

func (p *fpPartition) record(t *testing.T, where string) {
	n, r := p.newFP(), p.refFP()
	if r0, ok := p.byNew[n]; ok && r0 != r {
		t.Fatalf("%s: fingerprint %#x at %s also fingerprints a state first seen at %s, but their reference fingerprints differ (%#x vs %#x)",
			p.name, n, where, p.firstNewState[n], r, r0)
	}
	if n0, ok := p.byRef[r]; ok && n0 != n {
		t.Fatalf("%s: reference fingerprint %#x at %s matches a state whose fingerprint is %#x, but this one's is %#x",
			p.name, r, where, n0, n)
	}
	if _, ok := p.byNew[n]; !ok {
		p.firstNewState[n] = where
	}
	p.byNew[n], p.byRef[r] = r, n
}

// fpRecorder is a random scheduler that records every component's
// fingerprint pair at every decision.
type fpRecorder struct {
	t     *testing.T
	rng   *rand.Rand
	parts []*fpPartition
	run   int
	sched []int
}

func (r *fpRecorder) Pick(cands []engine.Candidate) int {
	where := fmt.Sprintf("run %d after [%s]", r.run, schedString(r.sched))
	for _, p := range r.parts {
		p.record(r.t, where)
	}
	i := r.rng.Intn(len(cands))
	r.sched = append(r.sched, cands[i].Thread)
	return i
}

// FuzzStateFingerprintMatchesReference: the allocation-free
// fingerprints the explorer's dedup table keys on partition machine
// states exactly as the full-walk, sorted-key reference fingerprints do
// (engine.ReferenceStateFingerprint and the components' own
// ReferenceFingerprint). A fuzz input picks an enumerated program of up
// to four ops, a configuration, a cache geometry and a seed; eight
// random schedules of the program then run on one machine, reset between
// them as the explorer resets it, and at every scheduling decision the
// whole state, the hierarchy and the oracle are each fingerprinted both
// ways. Any two recorded states must have equal fingerprints exactly
// when their reference fingerprints are equal.
func FuzzStateFingerprintMatchesReference(f *testing.F) {
	for _, seed := range []struct {
		prog uint16
		cfg  uint8
		tiny bool
		seed int64
	}{
		{0, 0, false, 1}, {17, 1, true, 2}, {250, 2, true, 3}, {511, 3, false, 4}, {7000, 4, true, 5}, {17000, 1, true, 6},
		// Two of this program's schedules reach states that differ only
		// in the order of an L1's LRU stamps.
		{programIndex("enum[s0|s0.s1.s0]"), 0, true, 3},
	} {
		f.Add(seed.prog, seed.cfg, seed.tiny, seed.seed)
	}
	f.Fuzz(func(t *testing.T, prog uint16, cfgIdx uint8, tiny bool, seed int64) {
		progs := fingerprintPrograms()
		tc := progs[int(prog)%len(progs)]
		cfg := allConfigs[int(cfgIdx)%len(allConfigs)]
		h := fingerprintHierarchy(cfg, tiny)
		m := &machine{h: h, e: engine.New(h, nil), o: oracle.New(0)}
		defer m.e.Close()
		m.load(tc, cfg)
		state := func(fp func() (uint64, bool)) func() uint64 {
			return func() uint64 {
				v, ok := fp()
				if !ok {
					t.Fatalf("%s/%s: a state fingerprint is unavailable", tc.Name, cfg.Name)
				}
				return v
			}
		}
		rec := &fpRecorder{t: t, rng: rand.New(rand.NewSource(seed)), parts: []*fpPartition{
			newFPPartition("state", state(m.e.StateFingerprint), state(m.e.ReferenceStateFingerprint)),
			newFPPartition("hierarchy", m.h.Fingerprint, m.h.ReferenceFingerprint),
			newFPPartition("oracle", m.o.Fingerprint, m.o.ReferenceFingerprint),
		}}
		for rec.run = 0; rec.run < 8; rec.run++ {
			m.reset()
			rec.sched = rec.sched[:0]
			m.e.SetScheduler(rec)
			m.e.Run()
		}
	})
}
