package engine

import (
	"math/bits"
	"sync/atomic"
)

// runq is the run queue of ready threads, ordered by (time, thread ID):
// smallest local clock first, and among equal clocks the lowest thread
// ID, exactly the old pickRunnable linear scan's tie-break.
//
// It is a calendar queue (Brown, CACM 1988) specialised to lockstep
// threads, whose ready clocks sit within a few hundred cycles of each
// other. A ring of ringBuckets one-cycle buckets covers the window
// [base, base+ringBuckets): bucket time&ringMask holds a bitset of the
// queued threads ready at that time, one bit per slot, and occ marks the
// non-empty buckets. A thread's slot is its ID minus the lowest ID the
// queue serves, so the lowest set bit of a bucket is the ID tie-break,
// and the first occupied bucket at or after base holds the ring's
// minimum. Any key outside the window goes to over, a (time, ID) binary
// heap: a far-future clock, or one below base such as a block-parallel
// wake into a shard that has run ahead. The queue minimum is the lesser
// of the ring's and the heap's, cached in min so that peek is one load.
//
// On removal base moves forward to the removed thread's clock, never
// past the minimum, so the in-hand thread's later pushes land in the
// ring unless they are far ahead. An empty ring moves its window to the
// next key it takes, even a far one; a wake below that key then spills.
//
// No decrease-key is needed: a ready thread's clock is final while it is
// queued (step, wake and the sync paths all settle t.time before the
// push) and does not change until it is popped. Blocked threads are not
// in the queue; they re-enter it when their grant wakes them.
//
// A zero runq has no ring and keeps every thread in the heap; reset
// gives it a ring over the threads it will serve, unless they are few
// enough (maxHeapSlots) that the heap alone is faster.
type runq struct {
	// slots[s] is the thread in slot s, whose ID is lo+s. It may include
	// threads another queue serves (a shard's ID range need not be
	// contiguous); their bits are never set here.
	slots []*thread
	lo    int
	// words is the bitset length of one bucket; ring[b*words:][:words]
	// is bucket b.
	words  int
	ring   []uint64
	occ    [ringBuckets / 64]uint64
	base   int64
	inRing int
	over   []*thread

	// min is the queue minimum (nil when empty) and minTime, minID its
	// key, so that comparing against it reads no thread. minAt is the
	// ring word holding its bit minBit, or -1 when it is the heap top.
	min     *thread
	minTime int64
	minID   int
	minAt   int
	minBit  uint64

	// pushes counts a ring queue's insertions and spills the ones that
	// went to the heap; each run adds them to runqPushes/runqSpills when
	// it ends.
	pushes, spills int64
}

// ringBuckets is the calendar window in cycles, a power of two. Over
// the intra-block sweep's HCC cells at bench scale, no push lands 512
// or more cycles past the queue minimum (p99 44, p99.99 256); over the
// incoherent configurations 0.8% do (DESIGN.md §10).
const (
	ringBuckets = 512
	ringMask    = ringBuckets - 1
)

// maxHeapSlots is the most threads a queue serves with its heap alone.
// A heap that small is at most two levels deep and no slower than the
// ring (DESIGN.md §10), and the 2- to 4-thread engines fuzzing builds,
// one per leg, then allocate no ring.
const maxHeapSlots = 4

// runqPushes and runqSpills total the insertions and heap spills of
// every finished run's ring queues, so a test can check that the
// window still holds the lockstep spread.
var runqPushes, runqSpills atomic.Int64

func runqLess(a, b *thread) bool {
	return a.time < b.time || (a.time == b.time && a.id < b.id)
}

// reset empties q and sizes its ring for the threads in slots, whose
// IDs must run consecutively from slots[0]'s. The ring is reused when it
// is large enough.
func (q *runq) reset(slots []*thread) {
	if q.inRing > 0 {
		clear(q.ring[:cap(q.ring)])
		q.occ = [len(q.occ)]uint64{}
	}
	clear(q.over)
	q.slots, q.lo = slots, 0
	if len(slots) > 0 {
		q.lo = slots[0].id
	}
	q.words = 0
	if len(slots) > maxHeapSlots {
		q.words = (len(slots) + 63) / 64
	}
	if n := ringBuckets * q.words; cap(q.ring) < n {
		q.ring = make([]uint64, n)
	} else {
		q.ring = q.ring[:n]
	}
	q.base, q.inRing, q.over, q.min = 0, 0, q.over[:0], nil
	q.pushes, q.spills = 0, 0
}

// tally adds a ring queue's insertion counts to the package totals.
func (q *runq) tally() {
	if q.words > 0 {
		runqPushes.Add(q.pushes)
		runqSpills.Add(q.spills)
	}
}

func (q *runq) len() int { return q.inRing + len(q.over) }

// peek returns the minimum-key thread without removing it (nil when
// empty). setHorizon reads it on every resume.
func (q *runq) peek() *thread { return q.min }

// before reports whether the queue minimum orders before t. The
// pipelined loop asks it after every op of its in-hand thread, to skip
// the queue while the same thread stays minimal.
func (q *runq) before(t *thread) bool {
	return q.min != nil && (q.minTime < t.time || q.minTime == t.time && q.minID < t.id)
}

func (q *runq) push(t *thread) {
	at, bit := q.insert(t)
	if q.min == nil || !q.before(t) {
		q.min, q.minTime, q.minID, q.minAt, q.minBit = t, t.time, t.id, at, bit
	}
}

func (q *runq) pop() *thread {
	top := q.min
	if top != nil {
		q.remove()
		q.first()
	}
	return top
}

// swapMin exchanges t with the current minimum and returns the old
// minimum. Only valid when the minimum orders before t: the fused form
// of push(t) followed by pop() that the pipelined loop uses when its
// in-hand thread loses the minimum.
func (q *runq) swapMin(t *thread) *thread {
	top := q.min
	if q.words == 0 {
		// A heap-only queue: t takes the top's place in one sift.
		q.over[0] = t
		q.siftDown()
		m := q.over[0]
		q.min, q.minTime, q.minID = m, m.time, m.id
		return top
	}
	q.remove()
	q.insert(t)
	q.first()
	return top
}

// insert files t in its ring bucket and returns the ring word and bit
// it set, or files it in the heap when its clock is outside the window
// and returns at -1. An empty ring moves its window to t.
func (q *runq) insert(t *thread) (at int, bit uint64) {
	q.pushes++
	if uint64(t.time-q.base) >= ringBuckets || q.words == 0 {
		if q.inRing > 0 || q.words == 0 {
			q.spill(t)
			return -1, 0
		}
		q.base = t.time
	}
	b, s := int(t.time&ringMask), uint(t.id-q.lo)
	at, bit = b*q.words+int(s>>6), 1<<(s&63)
	q.ring[at] |= bit
	q.occ[b>>6] |= 1 << (b & 63)
	q.inRing++
	return at, bit
}

// remove takes the minimum out of the ring or the heap, and advances
// base to its clock.
func (q *runq) remove() {
	if q.minAt < 0 {
		q.popOver()
	} else {
		w := q.ring[q.minAt] &^ q.minBit
		q.ring[q.minAt] = w
		q.inRing--
		if b := int(q.minTime & ringMask); w == 0 && (q.words == 1 || empty(q.ring[b*q.words:][:q.words])) {
			q.occ[b>>6] &^= 1 << (b & 63)
		}
	}
	q.base = max(q.base, q.minTime)
}

func empty(bucket []uint64) bool {
	for _, w := range bucket {
		if w != 0 {
			return false
		}
	}
	return true
}

// first finds the new minimum: the lowest slot of the first occupied
// bucket at or after base, or the heap top if that orders first.
func (q *runq) first() {
	q.min = nil
	if q.inRing > 0 {
		b0 := int(q.base & ringMask)
		b := b0
		if w := q.occ[b>>6] >> (b & 63); w != 0 {
			b += bits.TrailingZeros64(w)
		} else {
			b = q.nextBucket(b)
		}
		i := b * q.words
		w := q.ring[i]
		for w == 0 {
			i++
			w = q.ring[i]
		}
		s := (i-b*q.words)<<6 | bits.TrailingZeros64(w)
		q.min, q.minTime, q.minID, q.minAt, q.minBit = q.slots[s], q.base+int64((b-b0)&ringMask), q.lo+s, i, w&-w
	}
	if len(q.over) > 0 {
		if t := q.over[0]; q.min == nil || !q.before(t) {
			q.min, q.minTime, q.minID, q.minAt = t, t.time, t.id, -1
		}
	}
}

// nextBucket returns the first occupied bucket after the occ word that
// holds bucket b, wrapping round the ring; the ring must not be empty.
func (q *runq) nextBucket(b int) int {
	i := b >> 6
	for {
		i = (i + 1) % len(q.occ)
		if w := q.occ[i]; w != 0 {
			return i<<6 | bits.TrailingZeros64(w)
		}
	}
}

// spill pushes t onto the overflow heap.
func (q *runq) spill(t *thread) {
	q.spills++
	q.over = append(q.over, t)
	i := len(q.over) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !runqLess(q.over[i], q.over[parent]) {
			break
		}
		q.over[i], q.over[parent] = q.over[parent], q.over[i]
		i = parent
	}
}

// popOver removes the overflow heap's top.
func (q *runq) popOver() {
	n := len(q.over) - 1
	q.over[0] = q.over[n]
	q.over[n] = nil
	q.over = q.over[:n]
	q.siftDown()
}

// siftDown restores heap order below a new top.
func (q *runq) siftDown() {
	n := len(q.over)
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && runqLess(q.over[r], q.over[l]) {
			min = r
		}
		if !runqLess(q.over[min], q.over[i]) {
			return
		}
		q.over[i], q.over[min] = q.over[min], q.over[i]
		i = min
	}
}
