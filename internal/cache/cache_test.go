package cache

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func l1() *Cache { return New(Config{Bytes: 32 << 10, Ways: 4}) } // Table III private L1

func lineWords(seed mem.Word) *[mem.WordsPerLine]mem.Word {
	var w [mem.WordsPerLine]mem.Word
	for i := range w {
		w[i] = seed + mem.Word(i)
	}
	return &w
}

func TestGeometry(t *testing.T) {
	c := l1()
	if c.NumFrames() != 512 {
		t.Errorf("frames = %d, want 512", c.NumFrames())
	}
	if c.Sets() != 128 || c.Ways() != 4 {
		t.Errorf("sets/ways = %d/%d", c.Sets(), c.Ways())
	}
}

func TestBadConfigPanics(t *testing.T) {
	cases := []Config{
		{Bytes: 0, Ways: 4},
		{Bytes: 100, Ways: 4},        // not line-divisible
		{Bytes: 3 * 64 * 4, Ways: 4}, // 3 sets: not a power of two
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestLookupInsert(t *testing.T) {
	c := l1()
	if c.Lookup(0x1000) != nil {
		t.Fatal("empty cache should miss")
	}
	if c.Misses != 1 {
		t.Errorf("misses = %d", c.Misses)
	}
	var victim Line
	f, evicted := c.Insert(0x1000, lineWords(7), StateNone, &victim)
	if evicted {
		t.Error("insert into empty set should not evict")
	}
	if got := c.Frame(f).Tag; got != 0x1000 {
		t.Errorf("tag = %#x", got)
	}
	l := c.Lookup(0x1004) // any address within the line
	if l == nil {
		t.Fatal("should hit after insert")
	}
	if l.Words[1] != 8 {
		t.Errorf("word value = %d", l.Words[1])
	}
	if c.Hits != 1 {
		t.Errorf("hits = %d", c.Hits)
	}
}

func TestInsertDuplicatePanics(t *testing.T) {
	c := l1()
	c.Insert(0x40, lineWords(0), StateNone, nil)
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert should panic")
		}
	}()
	c.Insert(0x40, lineWords(0), StateNone, nil)
}

// TestInsertDuplicatePanicsWithInvalidWay pins the subtlety of the merged
// scan: the duplicate check must cover the whole set even when an invalid
// way appears before the duplicate.
func TestInsertDuplicatePanicsWithInvalidWay(t *testing.T) {
	c := New(Config{Bytes: 2 * 64 * 2, Ways: 2})
	c.Insert(0, lineWords(1), StateNone, nil)   // way 0 of set 0
	c.Insert(128, lineWords(2), StateNone, nil) // way 1 of set 0
	c.Invalidate(0)                             // way 0 now invalid, duplicate sits in way 1
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert behind an invalid way should panic")
		}
	}()
	c.Insert(128, lineWords(3), StateNone, nil)
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{Bytes: 2 * 64 * 2, Ways: 2}) // 2 sets × 2 ways
	// Three lines mapping to set 0: line addresses 0, 128, 256.
	c.Insert(0, lineWords(1), StateNone, nil)
	c.Insert(128, lineWords(2), StateNone, nil)
	c.Lookup(0) // make line 0 MRU
	var victim Line
	_, evicted := c.Insert(256, lineWords(3), StateNone, &victim)
	if !evicted || victim.Tag != 128 {
		t.Fatalf("victim = %+v (evicted=%v), want tag 128 (LRU)", victim, evicted)
	}
	if c.Peek(0) == nil || c.Peek(256) == nil || c.Peek(128) != nil {
		t.Error("post-eviction contents wrong")
	}
}

func TestVictimPrefersInvalidWay(t *testing.T) {
	c := New(Config{Bytes: 2 * 64 * 2, Ways: 2})
	c.Insert(0, lineWords(1), StateNone, nil)
	if f := c.Victim(128); c.keys[f] != 0 {
		t.Error("victim should be the invalid way")
	}
	if v := c.VictimLine(128); v != nil {
		t.Errorf("VictimLine = %+v, want nil for an invalid way", v)
	}
	c.Insert(128, lineWords(2), StateNone, nil)
	c.Lookup(128) // line 0 becomes the LRU way
	if v := c.VictimLine(256); v == nil || v.Tag != 0 {
		t.Errorf("VictimLine = %+v, want the LRU line 0", v)
	}
}

// allocBytes returns the fewest bytes fn allocated over three calls.
func allocBytes(fn func()) uint64 {
	var best uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < best {
			best = d
		}
	}
	return best
}

// TestSparseConstruction checks that line storage is allocated by
// Insert, not by New: building a cache costs its side arrays and page
// table, a read of an empty cache allocates nothing, and a Reset cache
// refills the pages it already has.
func TestSparseConstruction(t *testing.T) {
	const lines = 2048
	cfg := Config{Bytes: lines * mem.LineBytes, Ways: 8}
	var c *Cache
	if got := allocBytes(func() { c = New(cfg) }); got >= lines*mem.LineBytes/2 {
		t.Errorf("New of a %d-line cache allocated %d bytes, want under %d", lines, got, lines*mem.LineBytes/2)
	}
	for name, read := range map[string]func(){
		"Peek":       func() { c.Peek(0x1040) },
		"Lookup":     func() { c.Lookup(0x1040) },
		"Victim":     func() { c.Victim(0x1040) },
		"VictimLine": func() { c.VictimLine(0x1040) },
		"FrameOf":    func() { c.FrameOf(0x1040) },
	} {
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("%s on an empty cache: %v allocations, want 0", name, n)
		}
	}
	for i, p := range c.pages {
		if p != nil {
			t.Fatalf("page %d allocated by a read of an empty cache", i)
		}
	}

	words := lineWords(1)
	c.Insert(0x1040, words, StateNone, nil)
	c.Reset()
	if n := testing.AllocsPerRun(100, func() {
		c.Insert(0x1040, words, StateNone, nil)
		c.Reset()
	}); n != 0 {
		t.Errorf("Insert into a page kept by Reset: %v allocations, want 0", n)
	}
}

func TestDirtyEvictionCounted(t *testing.T) {
	c := New(Config{Bytes: 1 * 64 * 1, Ways: 1}) // direct-mapped single line
	c.Insert(0, lineWords(1), StateNone, nil)
	c.Frame(c.FrameOf(0)).Dirty = mem.Bit(3)
	var victim Line
	_, evicted := c.Insert(64, lineWords(2), StateNone, &victim)
	if !evicted || !victim.IsDirty() {
		t.Fatal("dirty victim should be returned dirty")
	}
	if c.WritebacksOnEvict != 1 {
		t.Errorf("WritebacksOnEvict = %d", c.WritebacksOnEvict)
	}
}

func TestInvalidate(t *testing.T) {
	c := l1()
	c.Insert(0x80, lineWords(9), StateNone, nil)
	var v Line
	if !c.InvalidateInto(0x80, &v) || v.Tag != 0x80 || v.Words[0] != 9 {
		t.Fatalf("InvalidateInto returned %+v", v)
	}
	if c.Peek(0x80) != nil {
		t.Error("line still present after invalidate")
	}
	if c.Invalidate(0x80) {
		t.Error("second invalidate should report absent")
	}
	c.Insert(0x80, lineWords(3), StateNone, nil)
	if !c.Invalidate(0x80) || c.Peek(0x80) != nil {
		t.Error("Invalidate should drop the line and report presence")
	}
	v = Line{Tag: 0x123}
	if c.InvalidateInto(0xbeef, &v) || v.Tag != 0x123 {
		t.Error("InvalidateInto of an absent line must not touch the buffer")
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	c := l1()
	c.Peek(0x40)
	if c.Hits != 0 || c.Misses != 0 {
		t.Error("Peek must not count hits or misses")
	}
}

func TestFlashInvalidateDrainsDirty(t *testing.T) {
	c := l1()
	c.Insert(0, lineWords(1), StateNone, nil)
	c.Insert(64, lineWords(2), StateNone, nil)
	c.Frame(c.FrameOf(64)).Dirty = mem.FullMask
	var drained []mem.Addr
	n := c.FlashInvalidate(func(l *Line) { drained = append(drained, l.Tag) })
	if n != 2 {
		t.Errorf("invalidated %d lines", n)
	}
	if len(drained) != 1 || drained[0] != 64 {
		t.Errorf("drained = %v, want [64]", drained)
	}
	if c.CountValid() != 0 {
		t.Error("cache not empty after flash invalidate")
	}
}

func TestCountDirty(t *testing.T) {
	c := l1()
	c.Insert(0, lineWords(1), StateNone, nil)
	c.Insert(64, lineWords(2), StateNone, nil)
	c.Frame(c.FrameOf(0)).Dirty = mem.Bit(0)
	if c.CountValid() != 2 || c.CountDirty() != 1 {
		t.Errorf("valid=%d dirty=%d", c.CountValid(), c.CountDirty())
	}
}

// Property: after any sequence of inserts, each set holds at most Ways
// valid lines and every valid tag maps to its own set.
func TestSetInvariant(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(Config{Bytes: 4 * 64 * 2, Ways: 2})
		for _, a := range addrs {
			line := mem.LineAddr(mem.Addr(a))
			if c.Peek(line) == nil {
				c.Insert(line, lineWords(mem.Word(a)), StateNone, nil)
			}
		}
		perSet := make(map[int]int)
		ok := true
		c.ForEachValid(func(_ FrameID, l *Line) {
			set := int(l.Tag/mem.LineBytes) % c.Sets()
			perSet[set]++
			if c.FrameOf(l.Tag) < 0 {
				ok = false
			}
		})
		for _, n := range perSet {
			if n > c.Ways() {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a line just inserted is always findable until something else
// maps to its set and evicts it; Lookup of present lines preserves values.
func TestInsertThenLookupValueFidelity(t *testing.T) {
	f := func(seed uint16) bool {
		c := l1()
		base := mem.LineAddr(mem.Addr(seed) * 64)
		c.Insert(base, lineWords(mem.Word(seed)), StateNone, nil)
		l := c.Lookup(base + 32)
		return l != nil && l.Words[8] == mem.Word(seed)+8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{StateNone: "-", Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
}

// Property: Insert lands in exactly the frame Victim predicts — the merged
// single-scan selection and the standalone Victim scan always agree.
func TestInsertMatchesVictimPrediction(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(Config{Bytes: 4 * 64 * 2, Ways: 2})
		for _, a := range addrs {
			line := mem.LineAddr(mem.Addr(a))
			if c.Peek(line) != nil {
				continue
			}
			want := c.Victim(line)
			got, _ := c.Insert(line, lineWords(mem.Word(a)), StateNone, nil)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
