package engine

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/mem"
)

// resetGuests is a small program exercising every piece of engine state
// Reset must restore: locks, barriers, flags, loads whose values the
// synchronous protocol hashes, and per-thread clocks.
func resetGuests(n int) []Guest {
	counter, data := mem.Addr(0x5000), mem.Addr(0x6000)
	guests := make([]Guest, n)
	for i := range guests {
		id := i
		guests[i] = func(p Proc) {
			p.Compute(int64(id * 7))
			for k := 0; k < 3; k++ {
				p.Acquire(1)
				v := p.Load(counter)
				p.Store(counter, v+1)
				p.WBAllMEB()
				p.Release(1)
				p.Barrier(0)
			}
			if id == 0 {
				p.Store(data, 42)
				p.WB(mem.WordRange(data, 1))
				p.FlagSet(3, 1)
				return
			}
			p.FlagWait(3, 1)
			p.INVAllLazy()
			p.Load(data)
		}
	}
	return guests
}

// abortAfter is a Scheduler that cuts the run off after n decisions,
// leaving guests suspended mid-program for shutdown to unwind.
type abortAfter struct{ n int }

func (s *abortAfter) Pick(cands []Candidate) int {
	if s.n == 0 {
		return -1
	}
	s.n--
	return 0
}

// TestResetMatchesFresh: an engine (and its hierarchy) reset after a
// completed, an aborted, or a differently-sized run must produce a Result
// byte-equal to a freshly constructed engine's for the same guests, under
// both the pipelined protocol and the synchronous one an installed
// Scheduler selects.
func TestResetMatchesFresh(t *testing.T) {
	encode := func(t *testing.T, res *Result, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, sched := range []Scheduler{nil, MinTimeScheduler{}} {
		fresh := func(n int) []byte {
			e := New(incoherent16(), resetGuests(n))
			e.SetScheduler(sched)
			res, err := e.Run()
			return encode(t, res, err)
		}
		for _, prior := range []struct {
			name    string
			threads int
			sched   Scheduler
		}{
			{"completed", 4, nil},
			{"aborted", 4, &abortAfter{n: 9}},
			{"grown", 2, MinTimeScheduler{}},
			{"shrunk", 8, nil},
		} {
			h := incoherent16()
			e := New(h, resetGuests(prior.threads))
			e.SetScheduler(prior.sched)
			e.NoProgressLimit = 1 << 20
			if _, err := e.Run(); err != nil && prior.name != "aborted" {
				t.Fatalf("%s: prior run: %v", prior.name, err)
			}
			for rep := 0; rep < 2; rep++ {
				h.Reset()
				e.Reset(resetGuests(4))
				e.SetScheduler(sched)
				res, err := e.Run()
				if got, want := encode(t, res, err), fresh(4); !bytes.Equal(got, want) {
					t.Errorf("sched=%T after %s run, reset %d: result differs from a fresh engine\n got %s\nwant %s",
						sched, prior.name, rep, got, want)
				}
			}
		}
	}
}
