// Package workload defines the common shape of the benchmark applications:
// a guest body written against the annotated shared-memory interface of
// Programming Model 1, plus the Table I pattern declaration and a
// self-verification function that checks the program's results in backing
// memory after the run drains. Verification is what makes the reproduction
// trustworthy: a configuration that omits a required WB or INV produces a
// detectably wrong answer, not just different timing.
package workload

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/annotate"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/oracle"
)

// Workload is one runnable application instance (problem size and address
// layout already fixed).
type Workload struct {
	// Name is the label used in figures ("fft", "lu-cont", ...).
	Name string
	// Threads is the number of guest threads (= cores used).
	Threads int
	// Pattern is the sharing knowledge handed to the annotator.
	Pattern annotate.Pattern
	// Main and Other are the Table I communication-pattern classification.
	Main, Other []string
	// Body is the per-thread program.
	Body annotate.App
	// Verify checks results against the sequential reference; memory must
	// have been drained first.
	Verify func(m *mem.Memory) error
}

// Guests lowers the workload to engine guests under configuration cfg.
func (w *Workload) Guests(cfg annotate.Config) []engine.Guest {
	return annotate.Guests(w.Threads, cfg, w.Pattern, w.Body)
}

// Cell returns the verified run of the workload under cfg on h.
func (w *Workload) Cell(h engine.Hierarchy, cfg annotate.Config) Cell {
	return Cell{Label: w.Name + "/" + cfg.Name, H: h, Guests: w.Guests(cfg), Verify: w.Verify}
}

// Run executes the workload on hierarchy h under cfg, drains, verifies,
// and returns the engine result.
func (w *Workload) Run(h engine.Hierarchy, cfg annotate.Config) (*engine.Result, error) {
	return w.Cell(h, cfg).Run(context.Background())
}

// Cell is one verified simulation run: guests on a hierarchy, and the
// check of the drained memory against the application's sequential
// reference. Both programming models build one (Workload.Cell,
// compiler.IRWorkload.Cell), and every sweep cell runs through it.
type Cell struct {
	// Label prefixes every error of the run ("fft/B+M", "cg/Addr+L").
	Label  string
	H      engine.Hierarchy
	Guests []engine.Guest
	// Verify checks the drained memory against the sequential reference.
	Verify func(m *mem.Memory) error
	// Oracle, when non-nil, observes the run's event stream and checks
	// the final memory image after the drain; a violation it found
	// becomes the run's primary error (verification still runs and its
	// failure is joined in).
	Oracle *oracle.Oracle
	// Recorder, when non-nil, is fed per-core stall spans by the engine;
	// attach it to the hierarchy separately (obs.Attach) for component
	// metrics. Snapshots are the caller's to take afterwards.
	Recorder *obs.Recorder
}

// Run executes the cell with cooperative cancellation: it runs the
// guests to completion, drains the hierarchy, has the oracle check the
// final image, and verifies the drained memory.
func (c Cell) Run(ctx context.Context) (*engine.Result, error) {
	e := engine.New(c.H, c.Guests)
	if c.Oracle != nil {
		e.SetObserver(c.Oracle)
	}
	if c.Recorder != nil {
		e.SetRecorder(c.Recorder)
	}
	res, err := e.RunCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Label, err)
	}
	c.H.Drain()
	var errs []error
	if c.Oracle != nil {
		c.Oracle.CheckFinal(c.H.Memory())
		if cerr := c.Oracle.Err(); cerr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", c.Label, cerr))
		}
	}
	if verr := c.Verify(c.H.Memory()); verr != nil {
		errs = append(errs, fmt.Errorf("%s: verification: %w", c.Label, verr))
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return res, nil
}

// Array is a word-array view over the simulated address space.
type Array struct {
	Base mem.Addr
	Len  int
}

// NewArray allocates n line-aligned words from ar.
func NewArray(ar *mem.Arena, n int) Array {
	return Array{Base: ar.AllocWords(n).Base, Len: n}
}

// At returns the address of element i.
func (a Array) At(i int) mem.Addr {
	if i < 0 || i >= a.Len {
		panic(fmt.Sprintf("workload: index %d out of [0,%d)", i, a.Len))
	}
	return a.Base + mem.Addr(i*mem.WordBytes)
}

// Slice returns the byte range covering elements [i, i+n).
func (a Array) Slice(i, n int) mem.Range {
	if n == 0 {
		return mem.Range{}
	}
	_ = a.At(i)
	_ = a.At(i + n - 1)
	return mem.WordRange(a.At(i), n)
}

// Whole returns the range covering the whole array.
func (a Array) Whole() mem.Range { return a.Slice(0, a.Len) }

// Chunk returns the [lo, hi) element range of thread t when Len elements
// are divided into nthreads consecutive chunks (OpenMP static chunk
// scheduling — the distribution Model 2's compiler analysis assumes).
func (a Array) Chunk(t, nthreads int) (lo, hi int) {
	return ChunkOf(a.Len, t, nthreads)
}

// ChunkOf splits n items into nthreads consecutive chunks and returns
// chunk t's bounds.
func ChunkOf(n, t, nthreads int) (lo, hi int) {
	per := (n + nthreads - 1) / nthreads
	lo = t * per
	hi = lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// CheckWord compares one memory word against an expected value.
func CheckWord(m *mem.Memory, a mem.Addr, want mem.Word, what string) error {
	if got := m.ReadWord(a); got != want {
		return fmt.Errorf("%s: got %d, want %d (addr %#x)", what, got, want, uint32(a))
	}
	return nil
}
