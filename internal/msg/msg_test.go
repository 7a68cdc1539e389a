package msg

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/topo"
)

func newMachine() (*core.Hierarchy, *mem.Arena) {
	m := topo.NewInterBlock()
	return core.New(m, core.Config{Config: levels.DefaultConfig(m)}), mem.NewArena(1 << 20)
}

func run(t *testing.T, h engine.Hierarchy, guests []engine.Guest) *engine.Result {
	t.Helper()
	res, err := engine.New(h, guests).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPingPong(t *testing.T) {
	h, ar := newMachine()
	c := NewComm(ar, 32, 16, 1000)
	var got []mem.Word
	guests := make([]engine.Guest, 32)
	for i := range guests {
		i := i
		guests[i] = func(p engine.Proc) {
			r := c.Attach(p, i)
			switch i {
			case 0:
				r.Send(8, []mem.Word{1, 2, 3})
				got = r.Recv(8, 3)
			case 8:
				in := r.Recv(0, 3)
				r.Send(0, []mem.Word{in[0] * 10, in[1] * 10, in[2] * 10})
			}
		}
	}
	run(t, h, guests)
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("pingpong result = %v", got)
	}
}

func TestBackToBackMessagesKeepOrder(t *testing.T) {
	h, ar := newMachine()
	c := NewComm(ar, 32, 4, 1000)
	var got []mem.Word
	guests := make([]engine.Guest, 32)
	for i := range guests {
		i := i
		guests[i] = func(p engine.Proc) {
			r := c.Attach(p, i)
			switch i {
			case 1:
				for k := 0; k < 5; k++ {
					r.Send(2, []mem.Word{mem.Word(100 + k)})
				}
			case 2:
				for k := 0; k < 5; k++ {
					got = append(got, r.Recv(1, 1)[0])
				}
			}
		}
	}
	run(t, h, guests)
	for k, v := range got {
		if v != mem.Word(100+k) {
			t.Fatalf("message %d = %d, want %d (FIFO violated)", k, v, 100+k)
		}
	}
}

func TestBroadcastSingleWrite(t *testing.T) {
	h, ar := newMachine()
	c := NewComm(ar, 32, 8, 2000)
	results := make([][]mem.Word, 32)
	guests := make([]engine.Guest, 32)
	for i := range guests {
		i := i
		guests[i] = func(p engine.Proc) {
			r := c.Bcast(p, i, 5, []mem.Word{7, 8, 9}, 1, 3)
			results[i] = r
		}
	}
	run(t, h, guests)
	for i, r := range results {
		if len(r) != 3 || r[0] != 7 || r[1] != 8 || r[2] != 9 {
			t.Errorf("rank %d broadcast = %v", i, r)
		}
	}
}

func TestNonblocking(t *testing.T) {
	h, ar := newMachine()
	c := NewComm(ar, 32, 8, 3000)
	var got []mem.Word
	guests := make([]engine.Guest, 32)
	for i := range guests {
		i := i
		guests[i] = func(p engine.Proc) {
			r := c.Attach(p, i)
			switch i {
			case 0:
				req := r.Isend(9, []mem.Word{42})
				p.Compute(1000)
				req.Wait()
			case 9:
				req := r.Irecv(0, 1)
				p.Compute(10)
				got = req.Wait()
			}
		}
	}
	run(t, h, guests)
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("nonblocking result = %v", got)
	}
}

func TestCrossBlockExchangeAllPairs(t *testing.T) {
	// Every rank sends its ID to rank (id+8)%32 — all cross-block.
	h, ar := newMachine()
	c := NewComm(ar, 32, 4, 4000)
	got := make([]mem.Word, 32)
	guests := make([]engine.Guest, 32)
	for i := range guests {
		i := i
		guests[i] = func(p engine.Proc) {
			r := c.Attach(p, i)
			dst := (i + 8) % 32
			src := (i + 24) % 32
			// The first send to a mailbox never blocks, so send-then-
			// receive is deadlock-free for a single exchange.
			r.Send(dst, []mem.Word{mem.Word(i)})
			got[i] = r.Recv(src, 1)[0]
		}
	}
	run(t, h, guests)
	for i := range got {
		want := mem.Word((i + 24) % 32)
		if got[i] != want {
			t.Errorf("rank %d received %d, want %d", i, got[i], want)
		}
	}
}

func TestOversizeMessagePanics(t *testing.T) {
	h, ar := newMachine()
	c := NewComm(ar, 2, 2, 5000)
	guests := []engine.Guest{
		func(p engine.Proc) {
			r := c.Attach(p, 0)
			r.Send(1, make([]mem.Word, 10))
		},
		func(p engine.Proc) {},
	}
	if _, err := engine.New(h, guests).Run(); err == nil {
		t.Error("oversize send should fail")
	}
}
