package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/mem"
)

// resetGuests is a small program exercising every piece of engine state
// Reset must restore: locks, barriers, flags, loads whose values a run
// under a Scheduler hashes, and per-thread clocks.
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

// exitPath is one way a run can end: it builds an engine for its guests
// (threads of them) with start, runs them under sched, and returns the
// engine and the run's error, which must contain want ("" for a clean
// finish).
type exitPath struct {
	name    string
	threads int
	want    string
	run     func(start func([]Guest) *Engine, threads int, sched Scheduler) (*Engine, error)
}

// exitPaths covers every way Run and RunCtx return: a clean finish, a
// Scheduler aborting mid-run, deadlock, a watchdog trip, a ctx cancel
// (before the first step and mid-run), a guest panic, and clean finishes
// on fewer and more threads than the runs that follow — the last one
// shrinking first, so the next Reset grows within the arena.
func exitPaths() []exitPath {
	flag := mem.Addr(0x7000)
	clean := func(start func([]Guest) *Engine, n int, sched Scheduler) (*Engine, error) {
		e := start(resetGuests(n))
		e.SetScheduler(sched)
		_, err := e.Run()
		return e, err
	}
	withGuests := func(guest func(id int, cancel func()) Guest, limit int64, canceled bool) func(func([]Guest) *Engine, int, Scheduler) (*Engine, error) {
		return func(start func([]Guest) *Engine, n int, sched Scheduler) (*Engine, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if canceled {
				cancel()
			}
			guests := make([]Guest, n)
			for i := range guests {
				guests[i] = guest(i, cancel)
			}
			e := start(guests)
			e.SetScheduler(sched)
			e.NoProgressLimit = limit
			_, err := e.RunCtx(ctx)
			return e, err
		}
	}
	return []exitPath{
		{"completed", 4, "", clean},
		{"aborted", 4, "aborted by scheduler", func(start func([]Guest) *Engine, n int, _ Scheduler) (*Engine, error) {
			return clean(start, n, &abortAfter{n: 9})
		}},
		{"deadlock", 4, "deadlock", withGuests(func(id int, _ func()) Guest {
			return func(p Proc) {
				p.Store(flag+mem.Addr(id*64), 1)
				p.Barrier(0)
				p.FlagWait(9, 1)
			}
		}, 0, false)},
		{"watchdog", 4, "livelock", withGuests(func(id int, _ func()) Guest {
			return func(p Proc) {
				for p.Load(flag) == 0 {
					p.INV(mem.WordRange(flag, 1))
				}
			}
		}, 1000, false)},
		{"canceled-before-start", 4, "canceled", withGuests(func(int, func()) Guest {
			return func(p Proc) {
				p.Load(flag)
				p.Compute(1)
			}
		}, 0, true)},
		{"canceled-mid-run", 4, "canceled", withGuests(func(id int, cancel func()) Guest {
			return func(p Proc) {
				for k := 0; ; k++ {
					if id == 0 && k == 10 {
						cancel()
					}
					p.Store(flag+mem.Addr(id*64), mem.Word(k))
					p.Load(flag + mem.Addr(id*64))
				}
			}
		}, 0, false)},
		{"guest-panic", 4, "guest panic", withGuests(func(id int, _ func()) Guest {
			return func(p Proc) {
				for k := 0; k < 4; k++ {
					p.Store(flag+mem.Addr(id*64), mem.Word(k))
					p.Load(flag)
					if id == 1 {
						panic("boom")
					}
				}
			}
		}, 0, false)},
		{"fewer-threads", 2, "", clean},
		{"more-threads", 8, "", clean},
		{"shrunk-then-regrown", 8, "", func(start func([]Guest) *Engine, n int, sched Scheduler) (*Engine, error) {
			e, err := clean(start, n, sched)
			if err != nil {
				return e, err
			}
			return clean(func(g []Guest) *Engine { e.Reset(g); return e }, 2, sched)
		}},
	}
}

// TestResetMatchesFresh: an engine (and its hierarchy) reset after a run
// that ended any way Run can end, on any thread count, must produce a
// Result byte-equal to a freshly constructed engine's for the same
// guests, both on the run queue and under an installed Scheduler. The
// prior run happens either on a New engine, whose coroutines must all
// end when its run returns, or on a Reset one, whose kept coroutines
// must all park again whatever the exit path; once every engine is
// closed, no goroutine is left behind.
func TestResetMatchesFresh(t *testing.T) {
	base := goroutines()
	encode := func(t *testing.T, res *Result, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, res)
	}
	scheds := []Scheduler{nil, MinTimeScheduler{}}
	want := map[Scheduler][]byte{}
	for _, sched := range scheds {
		e := New(incoherent16(), resetGuests(4))
		e.SetScheduler(sched)
		res, err := e.Run()
		want[sched] = encode(t, res, err)
	}
	for _, path := range exitPaths() {
		for _, prior := range scheds {
			for _, kept := range []bool{false, true} {
				h := incoherent16()
				start := func(g []Guest) *Engine {
					var e *Engine
					if kept {
						e = New(h, nil)
						e.Reset(g)
					} else {
						e = New(h, g)
					}
					e.NoProgressLimit = 1 << 20
					return e
				}
				e, err := path.run(start, path.threads, prior)
				if path.want == "" && err != nil || path.want != "" && (err == nil || !strings.Contains(err.Error(), path.want)) {
					t.Fatalf("%s (prior sched %T, kept %v): err = %v, want %q", path.name, prior, kept, err, path.want)
				}
				if !e.keep {
					// Never Reset: the run ended its coroutines itself.
					leakCheck(t, base)
				}
				for rep := 0; rep < 2; rep++ {
					for _, sched := range scheds {
						h.Reset()
						e.Reset(resetGuests(4))
						e.SetScheduler(sched)
						res, err := e.Run()
						if got := encode(t, res, err); !bytes.Equal(got, want[sched]) {
							t.Errorf("%s (prior sched %T, kept %v), reset %d, sched %T: result differs from a fresh engine\n got %s\nwant %s",
								path.name, prior, kept, rep, sched, got, want[sched])
						}
					}
				}
				e.Close()
			}
		}
	}
	leakCheck(t, base)
}

// panicAfter is a Scheduler that panics after n decisions, leaving every
// guest suspended mid-program.
type panicAfter struct{ n int }

func (s *panicAfter) Pick(cands []Candidate) int {
	if s.n == 0 {
		panic("scheduler failure")
	}
	s.n--
	return 0
}

// TestCloseUnwindsPanickedRun: a run that panics out of its Scheduler
// leaves guests suspended in their coroutines. A New engine's run ends
// them on the way out; a Reset engine's stay until Reset or Close ends
// them, so a Reset and clean run after the panic must run the new guests
// from the start (and match a fresh engine), and a Close right after the
// panic must leave nothing behind.
func TestCloseUnwindsPanickedRun(t *testing.T) {
	base := goroutines()
	fresh, err := New(incoherent16(), resetGuests(4)).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, kept := range []bool{false, true} {
		for _, rerun := range []bool{false, true} {
			h := incoherent16()
			e := New(h, resetGuests(4))
			if kept {
				e.Reset(resetGuests(4))
			}
			e.SetScheduler(&panicAfter{n: 5})
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("kept=%v: run did not panic", kept)
					}
				}()
				e.Run()
			}()
			if rerun {
				h.Reset()
				e.Reset(resetGuests(4))
				res, err := e.Run()
				if err != nil {
					t.Fatalf("kept=%v: run after the panic: %v", kept, err)
				}
				if got, want := mustJSON(t, res), mustJSON(t, fresh); !bytes.Equal(got, want) {
					t.Errorf("kept=%v: run after the panic differs from a fresh engine\n got %s\nwant %s", kept, got, want)
				}
			}
			e.Close()
		}
	}
	leakCheck(t, base)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
