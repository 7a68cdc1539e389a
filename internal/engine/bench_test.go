package engine

import (
	"strconv"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stats"
)

// nullHierarchy answers every memory operation in zero cycles, so the
// engine benchmark isolates scheduler overhead (runnable selection plus
// the guest channel round trip) from hierarchy modeling cost.
type nullHierarchy struct {
	m   *mem.Memory
	ctr *stats.Counters
}

func newNullHierarchy() *nullHierarchy {
	return &nullHierarchy{m: mem.NewMemory(), ctr: stats.NewCounters()}
}

func (n *nullHierarchy) Load(core int, a mem.Addr) (mem.Word, int64)  { return n.m.ReadWord(a), 1 }
func (n *nullHierarchy) Store(core int, a mem.Addr, v mem.Word) int64 { n.m.WriteWord(a, v); return 1 }
func (n *nullHierarchy) LoadUncached(core int, a mem.Addr) (mem.Word, int64) {
	return n.m.ReadWord(a), 1
}
func (n *nullHierarchy) StoreUncached(core int, a mem.Addr, v mem.Word) int64 {
	n.m.WriteWord(a, v)
	return 1
}
func (n *nullHierarchy) WB(core int, r mem.Range, lvl isa.Level) int64    { return 1 }
func (n *nullHierarchy) INV(core int, r mem.Range, lvl isa.Level) int64   { return 1 }
func (n *nullHierarchy) WBAll(core int, useMEB bool, lvl isa.Level) int64 { return 1 }
func (n *nullHierarchy) INVAll(core int, lazy bool, lvl isa.Level) int64  { return 1 }
func (n *nullHierarchy) WBCons(core int, r mem.Range, cons int) int64     { return 1 }
func (n *nullHierarchy) InvProd(core int, r mem.Range, prod int) int64    { return 1 }
func (n *nullHierarchy) WBConsAll(core, cons int) int64                   { return 1 }
func (n *nullHierarchy) InvProdAll(core, prod int) int64                  { return 1 }
func (n *nullHierarchy) SigPublish(core, ch int) int64                    { return 1 }
func (n *nullHierarchy) INVSig(core, ch int) int64                        { return 1 }
func (n *nullHierarchy) DMACopy(core int, dst mem.Addr, src mem.Range, toBlock int) int64 {
	return 1
}
func (n *nullHierarchy) EpochBoundary(core int)      {}
func (n *nullHierarchy) SyncCost(core, id int) int64 { return 1 }
func (n *nullHierarchy) Drain()                      {}
func (n *nullHierarchy) Memory() *mem.Memory         { return n.m }
func (n *nullHierarchy) Traffic() stats.Traffic      { return stats.Traffic{} }
func (n *nullHierarchy) Counters() *stats.Counters   { return n.ctr }

// privateNullHierarchy is nullHierarchy with the private-op surface:
// cacheable accesses to even lines run inline, the rest are scheduled,
// so a run exercises both paths and the switches between them.
type privateNullHierarchy struct{ *nullHierarchy }

func (n privateNullHierarchy) Private(core int, kind isa.OpKind, a mem.Addr, v mem.Word) (mem.Word, bool) {
	if a/mem.LineBytes%2 != 0 {
		return 0, false
	}
	switch kind {
	case isa.OpLoad:
		return n.m.ReadWord(a), true
	case isa.OpStore:
		n.m.WriteWord(a, v)
		return 0, true
	}
	return 0, false
}

func (privateNullHierarchy) PrivateOrdered() bool { return false }

// shardedNullHierarchy is nullHierarchy with a shard decomposition: cores
// are grouped into shards of coresPerShard, every non-sync op is
// shard-local, and each core has its own backing memory (the benchmark
// guests never share data, so results match the serial null hierarchy).
// It isolates the block-parallel executor's overhead and scaling the same
// way nullHierarchy isolates the serial scheduler's.
type shardedNullHierarchy struct {
	nullHierarchy
	ms            []*mem.Memory // per core
	coresPerShard int
	shards        int
}

func newShardedNullHierarchy(cores, coresPerShard int) *shardedNullHierarchy {
	h := &shardedNullHierarchy{
		nullHierarchy: *newNullHierarchy(),
		ms:            make([]*mem.Memory, cores),
		coresPerShard: coresPerShard,
		shards:        (cores + coresPerShard - 1) / coresPerShard,
	}
	for i := range h.ms {
		h.ms[i] = mem.NewMemory()
	}
	return h
}

func (n *shardedNullHierarchy) Load(core int, a mem.Addr) (mem.Word, int64) {
	return n.ms[core].ReadWord(a), 1
}
func (n *shardedNullHierarchy) Store(core int, a mem.Addr, v mem.Word) int64 {
	n.ms[core].WriteWord(a, v)
	return 1
}
func (n *shardedNullHierarchy) ParallelShards() int { return n.shards }
func (n *shardedNullHierarchy) ShardOf(core int) int {
	return core / n.coresPerShard
}
func (n *shardedNullHierarchy) OpLocal(core int, op *isa.Op) bool { return true }

// benchGuests builds the standard engine benchmark workload: threads
// guests each issuing opsPerGuest zero-latency stores/loads with
// staggered compute phases.
const benchOpsPerGuest = 2000

func benchGuests(threads int) []Guest {
	guests := make([]Guest, threads)
	for i := range guests {
		i := i
		guests[i] = func(p Proc) {
			base := mem.Addr(0x10000 + i*0x4000)
			for k := 0; k < benchOpsPerGuest; k++ {
				p.Store(base+mem.Addr(k%64*4), mem.Word(k))
				p.Load(base + mem.Addr((k+1)%64*4))
				// Stagger local clocks so selection order churns.
				p.Compute(int64(1 + (i+k)%7))
			}
		}
	}
	return guests
}

// BenchmarkEngineStep measures scheduler throughput in steps per second:
// T threads each issue opsPerGuest zero-latency operations with staggered
// compute phases, so the runnable set stays full and every step exercises
// the next-thread selection (linear scan before the heap rewrite, pop/push
// after). The op/s metric is the end-to-end simulated operation rate.
func BenchmarkEngineStep(b *testing.B) {
	for _, threads := range []int{4, 16, 64, 256} {
		threads := threads
		b.Run(benchName("threads", threads), func(b *testing.B) {
			guests := benchGuests(threads)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(newNullHierarchy(), guests).Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(3*benchOpsPerGuest*threads*b.N)/b.Elapsed().Seconds(), "op/s")
		})
	}
}

// BenchmarkEngineStepParallel runs the same workload through the
// block-parallel executor (8 cores per shard, matching the manycore
// topology). Comparing threads-N here against BenchmarkEngineStep's
// threads-N gives the within-simulation parallel speedup with hierarchy
// modeling cost excluded.
func BenchmarkEngineStepParallel(b *testing.B) {
	for _, threads := range []int{64, 256} {
		threads := threads
		b.Run(benchName("threads", threads), func(b *testing.B) {
			guests := benchGuests(threads)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(newShardedNullHierarchy(threads, 8), guests).Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(3*benchOpsPerGuest*threads*b.N)/b.Elapsed().Seconds(), "op/s")
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "-" + strconv.Itoa(n)
}

// TestEngineStepAllocs is the allocation-churn regression gate for the
// satellite fix: per-thread state (contexts, op rings, the guest-facing
// proc) lives in one arena and the run queue is preallocated, so a
// 64-thread run costs the engine slabs plus a fixed per-coroutine
// overhead (iter.Pull's handles are the irreducible per-thread part)
// instead of growing per thread struct and per ring. The hierarchy is
// built outside the measured region so the gate holds the engine, not
// the null memory's page faults, to the bound. The same bound holds with
// the private-op fast path on: an inline op must not allocate.
func TestEngineStepAllocs(t *testing.T) {
	const threads = 64
	guests := benchGuests(threads)
	for name, h := range map[string]Hierarchy{
		"scheduled": newNullHierarchy(),
		"private":   privateNullHierarchy{newNullHierarchy()},
	} {
		avg := testing.AllocsPerRun(3, func() {
			if _, err := New(h, guests).Run(); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(13*threads + 64); avg > limit {
			t.Errorf("%s: engine run allocated %.0f times for %d threads; limit %.0f", name, avg, threads, limit)
		}
	}
}

// BenchmarkRunq drives the run queue alone through the lockstep pattern
// of the HCC cells: the in-hand thread advances a few cycles per op and
// trades places with the queue minimum once it loses it, and one op in
// 4,096 takes a far-future clock that leaves the calendar window. At 4
// threads the queue is its heap alone (maxHeapSlots).
func BenchmarkRunq(b *testing.B) {
	for _, threads := range []int{4, 16, 64, 1024} {
		b.Run(benchName("threads", threads), func(b *testing.B) {
			ts := make([]*thread, threads)
			for i := range ts {
				ts[i] = &thread{id: i, time: int64(i % 4)}
			}
			var q runq
			q.reset(ts)
			for _, th := range ts {
				q.push(th)
			}
			t := q.pop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%4096 == 4095 {
					t.time += ringBuckets
				} else {
					t.time += int64(1 + i%5)
				}
				if q.before(t) {
					t = q.swapMin(t)
				}
			}
		})
	}
}
