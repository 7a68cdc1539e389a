package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The heap must drain in exactly the order the old linear scan picked:
// ascending time, ties by ascending thread ID.
func TestRunqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		var q runq
		ref := make([]*thread, 0, n)
		for i := 0; i < n; i++ {
			th := &thread{id: i, time: int64(rng.Intn(8))} // dense times force ties
			q.push(th)
			ref = append(ref, th)
		}
		sort.SliceStable(ref, func(a, b int) bool { return runqLess(ref[a], ref[b]) })
		for i, want := range ref {
			got := q.pop()
			if got != want {
				t.Fatalf("trial %d: pop %d = thread %d (t=%d), want thread %d (t=%d)",
					trial, i, got.id, got.time, want.id, want.time)
			}
		}
		if q.pop() != nil {
			t.Fatal("drained queue must pop nil")
		}
	}
}

// Interleaved push/pop: re-pushing a popped thread with a later time (the
// loop's re-push of a thread it ran) must keep the order correct.
func TestRunqReinsert(t *testing.T) {
	var q runq
	a := &thread{id: 0, time: 0}
	b := &thread{id: 1, time: 5}
	q.push(a)
	q.push(b)
	if q.pop() != a {
		t.Fatal("want a first")
	}
	a.time = 10
	q.push(a)
	if q.pop() != b || q.pop() != a || q.len() != 0 {
		t.Fatal("reinsert order wrong")
	}
}

// FuzzRunqMatchesReference drives random push, pop, swapMin, peek and
// reset sequences through the calendar queue and checks every answer
// against a linear scan for the least (time, ID), the rule the queue
// replaced. The queue serves an ID range that may start above 0 and
// skip IDs, as a block-parallel shard's does. Keys range from below the
// last popped clock to several windows past it, so they cross the
// window edge, wrap the ring, and land below base.
func FuzzRunqMatchesReference(f *testing.F) {
	f.Add([]byte{15, 0, 0, 0, 1, 2, 0, 3, 4, 1, 0, 0, 2, 1, 200, 4, 0, 0, 1, 0, 0})
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3000)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%130
		lo := int(data[1]) % 5
		stride := 1 + int(data[2])%3
		data = data[3:]
		ts := make([]*thread, n)
		for i := range ts {
			ts[i] = &thread{id: lo + i}
		}
		var q runq
		var free, queued []*thread
		reset := func() {
			q.reset(ts)
			free, queued = free[:0], queued[:0]
			for i, th := range ts {
				if i%stride == 0 {
					free = append(free, th)
				}
			}
		}
		reset()
		take := func(xs *[]*thread, i int) *thread {
			th := (*xs)[i]
			*xs = append((*xs)[:i], (*xs)[i+1:]...)
			return th
		}
		ref := func() (int, *thread) {
			at := -1
			for i, th := range queued {
				if at < 0 || runqLess(th, queued[at]) {
					at = i
				}
			}
			if at < 0 {
				return -1, nil
			}
			return at, queued[at]
		}
		var now int64 // the last popped clock
		key := func(kind, d byte) int64 {
			switch kind % 5 {
			case 0:
				return now + int64(d%8)
			case 1:
				return now + int64(d)*4 // across the window edge
			case 2:
				return now - int64(d%64) // below base
			case 3:
				return now + ringBuckets - 1 + int64(d%3) // on the window edge
			default:
				return now + int64(d)*64 // many windows ahead
			}
		}
		check := func(step int, what string) {
			if _, want := ref(); q.peek() != want || q.len() != len(queued) {
				t.Fatalf("step %d (%s): peek %s len %d, want %s len %d", step, what, desc(q.peek()), q.len(), desc(want), len(queued))
			}
		}
		for step := 0; len(data) >= 3; step++ {
			op, b0, b1 := data[0], data[1], data[2]
			data = data[3:]
			switch op % 5 {
			case 0:
				if len(free) == 0 {
					continue
				}
				th := take(&free, int(b0)%len(free))
				th.time = key(op/5, b1)
				q.push(th)
				queued = append(queued, th)
			case 1:
				at, want := ref()
				if got := q.pop(); got != want {
					t.Fatalf("step %d: pop = %s, want %s", step, desc(got), desc(want))
				}
				if want != nil {
					take(&queued, at)
					free = append(free, want)
					now = want.time
				}
			case 2:
				at, want := ref()
				if want == nil || len(free) == 0 {
					continue
				}
				th := take(&free, int(b0)%len(free))
				th.time = max(key(op/5, b1), want.time)
				if !runqLess(want, th) {
					th.time++
				}
				if got := q.swapMin(th); got != want {
					t.Fatalf("step %d: swapMin = %s, want %s", step, desc(got), desc(want))
				}
				queued[at] = th
				free = append(free, want)
				now = want.time
			case 3:
				if b0%8 == 0 {
					reset()
				}
			case 4:
				_, want := ref()
				probe := &thread{id: lo + int(b0)%n, time: key(op/5, b1)}
				if got := q.before(probe); got != (want != nil && runqLess(want, probe)) {
					t.Fatalf("step %d: before(%s) = %v with minimum %s", step, desc(probe), got, desc(want))
				}
			}
			check(step, [...]string{"push", "pop", "swapMin", "reset", "before"}[op%5])
		}
		for len(queued) > 0 {
			at, want := ref()
			if got := q.pop(); got != want {
				t.Fatalf("drain: pop = %s, want %s", desc(got), desc(want))
			}
			take(&queued, at)
		}
		if q.pop() != nil {
			t.Fatal("drained queue must pop nil")
		}
	})
}

// desc names a queued thread by its key.
func desc(th *thread) string {
	if th == nil {
		return "none"
	}
	return fmt.Sprintf("thread %d at %d", th.id, th.time)
}
