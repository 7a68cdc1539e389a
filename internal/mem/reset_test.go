package mem

import (
	"math/rand"
	"testing"
)

// perWordFingerprint is the reference Fingerprint: it tests every word of
// every resident page against the population bitmap, the original
// formulation whose hash order and value the bitmap walk must reproduce.
func perWordFingerprint(m *Memory) uint64 {
	h := FingerprintSeed
	for pn, p := range m.pages {
		if p == nil {
			continue
		}
		base := Addr(uint32(pn) << pageShift)
		for wi := 0; wi < pageWords; wi++ {
			if p.written[wi>>6]&(1<<(wi&63)) == 0 {
				continue
			}
			h = Mix64(h, uint64(base)+uint64(wi*WordBytes))
			h = Mix64(h, uint64(p.words[wi]))
		}
	}
	return h
}

// randomWrites applies n word and masked line writes spread over a few
// pages, including page-boundary and top-of-page addresses.
func randomWrites(rng *rand.Rand, m *Memory, n int) {
	for i := 0; i < n; i++ {
		a := Addr(rng.Intn(4)<<pageShift | rng.Intn(pageBytes))
		if rng.Intn(2) == 0 {
			m.WriteWord(a, Word(rng.Uint32()))
			continue
		}
		var src [WordsPerLine]Word
		for j := range src {
			src[j] = Word(rng.Uint32())
		}
		m.WriteLine(a, &src, LineMask(rng.Intn(int(FullMask)+1)))
	}
}

// TestFingerprintBitmapWalk: the set-bit walk hashes exactly what the
// per-word reference and the full bitmap walk (ReferenceFingerprint)
// hash, over random write patterns and across Reset, and a reset store
// is indistinguishable from a fresh one.
func TestFingerprintBitmapWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reused := NewMemory()
	for round := 0; round < 20; round++ {
		fresh := NewMemory()
		n := rng.Intn(200)
		seed := rng.Int63()
		randomWrites(rand.New(rand.NewSource(seed)), reused, n)
		randomWrites(rand.New(rand.NewSource(seed)), fresh, n)
		if got, want := reused.Fingerprint(), perWordFingerprint(reused); got != want {
			t.Fatalf("round %d: bitmap walk %#x, per-word reference %#x", round, got, want)
		}
		if got, want := reused.Fingerprint(), reused.ReferenceFingerprint(); got != want {
			t.Fatalf("round %d: summary walk %#x, full bitmap walk %#x", round, got, want)
		}
		if got, want := reused.Fingerprint(), fresh.Fingerprint(); got != want {
			t.Fatalf("round %d: reused store %#x, fresh store %#x", round, got, want)
		}
		if got, want := reused.Footprint(), fresh.Footprint(); got != want {
			t.Fatalf("round %d: reused footprint %d, fresh %d", round, got, want)
		}
		reused.Reset()
		if got, want := reused.Fingerprint(), NewMemory().Fingerprint(); got != want {
			t.Fatalf("round %d: reset store fingerprints %#x, empty store %#x", round, got, want)
		}
		if got := reused.Footprint(); got != 0 {
			t.Fatalf("round %d: reset store footprint %d", round, got)
		}
		for pn, p := range reused.pages {
			if p != nil && *p != (page{}) {
				t.Fatalf("round %d: page %d not cleared by Reset", round, pn)
			}
		}
	}
}

// TestResetOracleStore: the map-backed store resets to empty too.
func TestResetOracleStore(t *testing.T) {
	m := NewOracleMemory()
	m.WriteWord(0x40, 7)
	m.Reset()
	if m.Footprint() != 0 || m.ReadWord(0x40) != 0 {
		t.Fatalf("oracle store not empty after Reset: footprint %d", m.Footprint())
	}
	if got, want := m.Fingerprint(), NewMemory().Fingerprint(); got != want {
		t.Fatalf("reset oracle store fingerprints %#x, empty store %#x", got, want)
	}
}
