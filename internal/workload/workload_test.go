package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestArrayAddressing(t *testing.T) {
	ar := mem.NewArena(4096)
	a := NewArray(ar, 100)
	if a.At(0) != a.Base {
		t.Error("At(0) should be the base")
	}
	if a.At(1)-a.At(0) != mem.WordBytes {
		t.Error("elements should be word-spaced")
	}
	r := a.Slice(10, 5)
	if r.Base != a.At(10) || r.Bytes != 5*mem.WordBytes {
		t.Errorf("Slice = %v", r)
	}
	if a.Whole().Bytes != 100*mem.WordBytes {
		t.Error("Whole covers the array")
	}
	if a.Slice(0, 0).Bytes != 0 {
		t.Error("empty slice should be empty")
	}
}

func TestArrayBoundsPanic(t *testing.T) {
	ar := mem.NewArena(4096)
	a := NewArray(ar, 10)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range At should panic")
		}
	}()
	a.At(10)
}

func TestChunkOfCoversAllItemsExactlyOnce(t *testing.T) {
	f := func(n8, t8 uint8) bool {
		n := int(n8%200) + 1
		threads := int(t8%32) + 1
		covered := make([]int, n)
		for th := 0; th < threads; th++ {
			lo, hi := ChunkOf(n, th, threads)
			if lo > hi || lo < 0 || hi > n {
				return false
			}
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChunksAreConsecutive(t *testing.T) {
	// OpenMP static chunk scheduling hands out consecutive runs in thread
	// order — the property Model 2's analysis depends on.
	f := func(n8, t8 uint8) bool {
		n := int(n8%200) + 1
		threads := int(t8%32) + 1
		next := 0
		for th := 0; th < threads; th++ {
			lo, hi := ChunkOf(n, th, threads)
			if lo != next && lo != hi { // empty chunks may collapse
				return false
			}
			if hi > next {
				next = hi
			}
		}
		return next == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCheckWord(t *testing.T) {
	m := mem.NewMemory()
	m.WriteWord(0x100, 5)
	if err := CheckWord(m, 0x100, 5, "x"); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	if err := CheckWord(m, 0x100, 6, "x"); err == nil {
		t.Error("mismatch should error")
	}
}
