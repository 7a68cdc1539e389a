package hwsync

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFingerprintMatchesReference: Fingerprint partitions controller
// states exactly as the sorted-id ReferenceFingerprint does. Random
// request streams over two locks, barriers and flags, three threads and
// a handful of request times run on one controller, Reset between
// streams; the state after every request of every stream joins one
// table, and any two of them must have equal fingerprints exactly when
// their reference fingerprints are equal.
func TestFingerprintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New(fixedCost(2))
	byNew, byRef := map[uint64]uint64{}, map[uint64]uint64{}
	for stream := 0; stream < 3000; stream++ {
		c.Reset()
		for step := 0; step < 1+rng.Intn(8); step++ {
			th, id, now := rng.Intn(3), rng.Intn(2), int64(rng.Intn(3))
			switch rng.Intn(5) {
			case 0:
				c.Acquire(th, id, now)
			case 1:
				if holder, held := c.HeldBy(id); held {
					c.Release(holder, id, now)
				}
			case 2:
				c.BarrierArrive(th, id, now, 2)
			case 3:
				c.FlagSet(th, id, int64(rng.Intn(3)), now)
			case 4:
				c.FlagWait(th, id, int64(rng.Intn(3)), now)
			}
			n, r := c.Fingerprint(), c.ReferenceFingerprint()
			if r0, ok := byNew[n]; ok && r0 != r {
				t.Fatalf("stream %d step %d: fingerprint %#x matches an earlier state whose reference fingerprint differs", stream, step, n)
			}
			if n0, ok := byRef[r]; ok && n0 != n {
				t.Fatalf("stream %d step %d: reference fingerprint %#x matches an earlier state whose fingerprint differs", stream, step, r)
			}
			byNew[n], byRef[r] = r, n
		}
	}
}

// TestResetMatchesNew: a controller Reset after a history that left a
// held lock with a queue, a half-full barrier and a flag with waiters
// behaves as a New one on the next history.
func TestResetMatchesNew(t *testing.T) {
	history := func(c *Controller) []any {
		var out []any
		at, ok := c.Acquire(0, 1, 5)
		out = append(out, at, ok)
		at, ok = c.Acquire(1, 1, 6)
		out = append(out, at, ok)
		out = append(out, c.BarrierArrive(2, 0, 7, 2), c.FlagSet(0, 3, 1, 8))
		at, ok = c.FlagWait(1, 3, 2, 9)
		out = append(out, at, ok, c.Fingerprint(), c.ReferenceFingerprint(), c.Blocked())
		return out
	}
	reused := New(fixedCost(4))
	history(reused)
	reused.Reset()
	if got, want := history(reused), history(New(fixedCost(4))); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset controller: %v, new controller: %v", got, want)
	}
}
