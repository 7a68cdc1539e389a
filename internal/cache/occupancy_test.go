package cache

import (
	"testing"

	"repro/internal/mem"
)

// storedLine returns frame f's line, or nil when f's set has no
// storage. Unlike Frame it is safe on any frame, and unlike Insert it
// allocates nothing, so checking a cache leaves its set table as it was.
func storedLine(c *Cache, f int) *Line {
	if b := c.blockOf(f); b != nil {
		return &b.lines[slot(f)]
	}
	return nil
}

// storedKey returns frame f's probe key, or 0 when f's set has no
// storage.
func storedKey(c *Cache, f int) uint32 {
	if b := c.blockOf(f); b != nil {
		return b.keys[slot(f)]
	}
	return 0
}

// checkOccupancy compares every bitmap-driven walk against a scan of all
// frames, and checks the set table: a set has storage exactly when some
// Insert reached it (inserted[s]), sets that share a block share the
// same one, every valid frame has storage, and neither a read nor Reset
// creates or drops a set's storage.
func checkOccupancy(t *testing.T, c *Cache, inserted []bool, step int) {
	t.Helper()
	share := maxWays / c.Ways()
	for s, b := range c.sets {
		if got := b != nil; got != inserted[s] {
			t.Fatalf("step %d: set %d has storage %v, reached by Insert %v", step, s, got, inserted[s])
		}
		for n := s &^ (share - 1); b != nil && n < s; n++ {
			if c.sets[n] != nil && c.sets[n] != b {
				t.Fatalf("step %d: sets %d and %d share frames but not a block", step, n, s)
			}
		}
	}
	var valid, dirty []FrameID
	for f := 0; f < c.NumFrames(); f++ {
		key := storedKey(c, f)
		if got, want := c.valid[f/64]&(1<<(f%64)) != 0, key != 0; got != want {
			t.Fatalf("step %d: frame %d: valid bit %v, key %#x", step, f, got, key)
		}
		l := storedLine(c, f)
		if l == nil {
			continue
		}
		if l.Valid != (key != 0) {
			t.Fatalf("step %d: frame %d: Valid %v, key %#x", step, f, l.Valid, key)
		}
		if key != 0 {
			valid = append(valid, FrameID(f))
			if l.IsDirty() {
				dirty = append(dirty, FrameID(f))
			}
		}
	}
	var walked []FrameID
	c.ForEachValid(func(f FrameID, l *Line) {
		if l != storedLine(c, int(f)) {
			t.Fatalf("step %d: ForEachValid passed frame %d a foreign line", step, f)
		}
		walked = append(walked, f)
	})
	if len(walked) != len(valid) {
		t.Fatalf("step %d: ForEachValid visited %v, valid frames %v", step, walked, valid)
	}
	for i := range walked {
		if walked[i] != valid[i] {
			t.Fatalf("step %d: ForEachValid visited %v, valid frames %v", step, walked, valid)
		}
	}
	if n := c.CountValid(); n != len(valid) {
		t.Fatalf("step %d: CountValid %d, scan %d", step, n, len(valid))
	}
	if n := c.CountDirty(); n != len(dirty) {
		t.Fatalf("step %d: CountDirty %d, scan %d", step, n, len(dirty))
	}
	if got, want := c.Fingerprint(), c.ReferenceFingerprint(); got != want {
		t.Fatalf("step %d: Fingerprint %#x, all-sets scan %#x", step, got, want)
	}
}

// FuzzCacheOccupancy drives a two-bitmap-word cache (128 frames, 1-,
// 2-, 4- or 8-way as the first byte picks) through random inserts, hits,
// writes, invalidations, flash invalidations and resets over a footprint
// of twice its capacity, and checks after every step that the valid
// bitmap mirrors the frame keys, that every walk over it agrees with a
// full-frame scan, and that the sets with storage are exactly those an
// Insert reached.
func FuzzCacheOccupancy(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 2, 2, 1, 3, 2, 0, 200, 5, 0, 0, 7, 6, 0})
	f.Add([]byte{2, 0, 0, 0, 32, 0, 64, 0, 96, 0, 128, 2, 0, 4, 32, 1, 64})
	f.Add([]byte{3, 0, 0, 0, 16, 0, 32, 7, 0, 0, 16, 4, 16, 0, 48})
	f.Add([]byte{0, 0, 1, 0, 129, 0, 2, 6, 0, 0, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		c := New(Config{Bytes: 128 * mem.LineBytes, Ways: 1 << (prog[0] % 4)})
		prog = prog[1:]
		lines := 2 * c.NumFrames()
		inserted := make([]bool, c.Sets())
		var victim Line
		for i := 0; i+1 < len(prog); i += 2 {
			line := mem.Addr(int(prog[i+1])%lines) * mem.LineBytes
			switch prog[i] % 8 {
			case 0, 1: // insert (the commonest step, so caches fill)
				if c.Peek(line) == nil {
					f, _ := c.Insert(line, lineWords(mem.Word(i)), State(prog[i]%5), &victim)
					inserted[int(f)/c.Ways()] = true
				}
			case 2: // hit, refreshing LRU order
				c.Lookup(line)
			case 3: // write: dirty a word of a present line
				if l := c.Peek(line); l != nil {
					w := int(prog[i]/8) % mem.WordsPerLine
					l.Words[w]++
					l.Dirty |= mem.Bit(w)
				}
			case 4:
				c.Invalidate(line)
			case 5:
				c.InvalidateInto(line, &victim)
			case 6:
				drained := 0
				n := c.FlashInvalidate(func(l *Line) {
					if !l.IsDirty() {
						t.Fatalf("step %d: FlashInvalidate drained a clean line", i/2)
					}
					drained++
				})
				if n < drained {
					t.Fatalf("step %d: FlashInvalidate drained %d of %d lines", i/2, drained, n)
				}
			case 7:
				if prog[i+1]%4 == 0 {
					c.Reset()
				}
			}
			checkOccupancy(t, c, inserted, i/2)
		}
	})
}
