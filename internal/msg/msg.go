// Package msg implements the message-passing half of Programming Model 1
// (Section IV): MPI-style Send/Recv between blocks over an on-chip
// uncacheable shared buffer, with flag synchronization served by the
// shared-cache controller. Because the buffers are uncacheable, no WB or
// INV instructions are needed: a sender's words are globally visible as
// soon as they are written, exactly the property the paper exploits to
// make MPI_Send/MPI_Recv cheap on this machine.
//
// Broadcast needs no per-recipient copies: the sender writes once and
// every receiver reads the same buffer (Section IV's single-write
// broadcast). Nonblocking sends are modeled by deferring the completion
// wait to Wait, following the paper's reference to Friedley et al.'s
// shared-buffer MPI.
package msg

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/workload"
)

// Comm is a communicator: per-rank mailboxes in uncacheable shared memory
// plus the flag IDs used for rendezvous. Create one per machine with
// NewComm and share it across ranks (it is immutable after creation).
type Comm struct {
	ranks    int
	slots    int                // words per mailbox
	box      [][]workload.Array // box[dst][src]: one mailbox per ordered pair
	flagBase int
}

// NewComm builds a communicator for the given number of ranks with
// mailboxes of slotWords words, allocating from ar. flagBase namespaces
// the controller flags used for rendezvous.
func NewComm(ar *mem.Arena, ranks, slotWords, flagBase int) *Comm {
	c := &Comm{ranks: ranks, slots: slotWords, flagBase: flagBase}
	c.box = make([][]workload.Array, ranks)
	for dst := 0; dst < ranks; dst++ {
		c.box[dst] = make([]workload.Array, ranks)
		for src := 0; src < ranks; src++ {
			c.box[dst][src] = workload.NewArray(ar, slotWords)
		}
	}
	return c
}

// pairFlag returns the flag ID sequencing messages from src to dst. The
// flag value counts completed transfers: the sender waits for value 2k
// (buffer free), posts the payload, sets 2k+1; the receiver waits for
// 2k+1, drains, sets 2k+2.
func (c *Comm) pairFlag(src, dst int) int {
	return c.flagBase + src*c.ranks + dst
}

// Rank is one rank's endpoint, bound to a guest thread's Proc.
type Rank struct {
	c    *Comm
	p    engine.Proc
	me   int
	sent map[int]int64 // per-peer completed send count
	rcvd map[int]int64 // per-peer completed receive count
}

// Attach binds rank me to processor p.
func (c *Comm) Attach(p engine.Proc, me int) *Rank {
	if me < 0 || me >= c.ranks {
		panic(fmt.Sprintf("msg: rank %d out of [0,%d)", me, c.ranks))
	}
	return &Rank{c: c, p: p, me: me, sent: make(map[int]int64), rcvd: make(map[int]int64)}
}

// Send transfers words to rank dst, blocking until the mailbox accepts it.
func (r *Rank) Send(dst int, words []mem.Word) {
	if len(words) > r.c.slots {
		panic(fmt.Sprintf("msg: message of %d words exceeds mailbox of %d", len(words), r.c.slots))
	}
	k := r.sent[dst]
	flag := r.c.pairFlag(r.me, dst)
	// Wait for the mailbox to be free (receiver drained message k-1).
	r.p.FlagWait(flag, 2*k)
	box := r.c.box[dst][r.me]
	for i, w := range words {
		r.p.StoreU(box.At(i), w)
	}
	r.p.FlagSet(flag, 2*k+1)
	r.sent[dst] = k + 1
}

// Recv blocks until a message from src arrives and returns n words.
func (r *Rank) Recv(src, n int) []mem.Word {
	if n > r.c.slots {
		panic(fmt.Sprintf("msg: receive of %d words exceeds mailbox of %d", n, r.c.slots))
	}
	k := r.rcvd[src]
	flag := r.c.pairFlag(src, r.me)
	r.p.FlagWait(flag, 2*k+1)
	box := r.c.box[r.me][src]
	out := make([]mem.Word, n)
	for i := range out {
		out[i] = r.p.LoadU(box.At(i))
	}
	r.p.FlagSet(flag, 2*k+2)
	r.rcvd[src] = k + 1
	return out
}

// Request is a pending nonblocking operation.
type Request struct {
	done func() []mem.Word
	out  []mem.Word
}

// Isend starts a nonblocking send: the payload is written immediately
// (the buffer write is cheap and uncacheable); completion — the free-slot
// rendezvous for the *next* send — is deferred to Wait. If the mailbox is
// still busy with the previous message, Isend itself performs the
// rendezvous first, as a shared-buffer MPI must.
func (r *Rank) Isend(dst int, words []mem.Word) *Request {
	r.Send(dst, words)
	return &Request{done: func() []mem.Word { return nil }}
}

// Irecv starts a nonblocking receive completed by Wait.
func (r *Rank) Irecv(src, n int) *Request {
	return &Request{done: func() []mem.Word { return r.Recv(src, n) }}
}

// Wait completes a request, returning received words (nil for sends).
func (req *Request) Wait() []mem.Word {
	if req.done != nil {
		req.out = req.done()
		req.done = nil
	}
	return req.out
}

// Bcast broadcasts words from root: the root writes its own mailbox once
// and raises one flag; every other rank reads the same buffer — no
// per-recipient copies (Section IV). All ranks must call Bcast; it
// returns the payload on every rank. gen distinguishes successive
// broadcasts (use a counter starting at 1). Because receivers do not
// acknowledge, successive broadcasts from the same root must be separated
// by a barrier.
func (c *Comm) Bcast(p engine.Proc, me, root int, words []mem.Word, gen int64, n int) []mem.Word {
	box := c.box[root][root]
	flag := c.flagBase + c.ranks*c.ranks + root
	if me == root {
		for i, w := range words {
			p.StoreU(box.At(i), w)
		}
		p.FlagSet(flag, gen)
		return words
	}
	p.FlagWait(flag, gen)
	out := make([]mem.Word, n)
	for i := range out {
		out[i] = p.LoadU(box.At(i))
	}
	return out
}
