package cache

import (
	"testing"

	"repro/internal/mem"
)

// checkOccupancy compares every bitmap-driven walk against a scan of all
// frames.
func checkOccupancy(t *testing.T, c *Cache, step int) {
	t.Helper()
	var valid, dirty []FrameID
	for f := range c.frames {
		if got, want := c.valid[f/64]&(1<<(f%64)) != 0, c.keys[f] != 0; got != want {
			t.Fatalf("step %d: frame %d: valid bit %v, key %#x", step, f, got, c.keys[f])
		}
		if c.frames[f].Valid != (c.keys[f] != 0) {
			t.Fatalf("step %d: frame %d: Valid %v, key %#x", step, f, c.frames[f].Valid, c.keys[f])
		}
		if c.keys[f] != 0 {
			valid = append(valid, FrameID(f))
			if c.frames[f].IsDirty() {
				dirty = append(dirty, FrameID(f))
			}
		}
	}
	var walked []FrameID
	c.ForEachValid(func(f FrameID, l *Line) {
		if l != &c.frames[f] {
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

// FuzzCacheOccupancy drives a two-bitmap-word cache (128 frames, 4-way)
// through random inserts, hits, writes, invalidations, flash
// invalidations and resets over a footprint of twice its capacity, and
// checks after every step that the valid bitmap mirrors the frame keys
// and that every walk over it agrees with a full-frame scan.
func FuzzCacheOccupancy(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 3, 2, 0, 200, 5, 0, 0, 7, 6, 0})
	f.Add([]byte{0, 0, 0, 32, 0, 64, 0, 96, 0, 128, 2, 0, 4, 32, 1, 64})
	f.Fuzz(func(t *testing.T, prog []byte) {
		c := New(Config{Bytes: 128 * mem.LineBytes, Ways: 4})
		lines := 2 * c.NumFrames()
		var victim Line
		for i := 0; i+1 < len(prog); i += 2 {
			line := mem.Addr(int(prog[i+1])%lines) * mem.LineBytes
			switch prog[i] % 8 {
			case 0, 1: // insert (the commonest step, so caches fill)
				if c.Peek(line) == nil {
					c.Insert(line, lineWords(mem.Word(i)), State(prog[i]%5), &victim)
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
			checkOccupancy(t, c, i/2)
		}
	})
}
