// Package runner is the parallel experiment orchestrator: it fans a set
// of independent (workload, config) simulation runs out across a worker
// pool and assembles the outcomes into a deterministically-ordered,
// key-addressable grid.
//
// The experiments in the root package are embarrassingly parallel — every
// run owns its own hierarchy, engine, and guest memory — but figure
// normalization (to HCC or Addr) used to depend on loop order. The grid
// decouples execution order from assembly order: cells are stored and
// looked up by (workload, config) key, so normalization reads the
// baseline cell explicitly no matter which run finished first, and serial
// and parallel sweeps produce identical results.
//
// Each run is wrapped with a per-run timeout and panic capture: a wedged
// or crashing guest fails its own cell with a labeled error instead of
// taking down (or hanging) the whole sweep. Failures carry a small error
// taxonomy (ErrorKind: panic, timeout, livelock, coherence, nil-outcome,
// canceled) that flows into the JSON records.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Options controls how a sweep executes.
type Options struct {
	// Parallel is the worker count; values <= 0 mean GOMAXPROCS.
	// Parallel == 1 runs the tasks serially in task order.
	Parallel int
	// Timeout bounds each individual run; 0 means no per-run timeout.
	// A run that exceeds it fails its cell with a TimeoutError. The
	// engine observes cancellation cooperatively (engine.RunCtx) and
	// stops its guest goroutines, so a timed-out cell releases its worker
	// without leaking; only a body wedged outside the engine step loop is
	// abandoned, after a grace period.
	Timeout time.Duration
}

// Workers returns the effective worker count for n tasks.
func (o Options) Workers(n int) int {
	w := o.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Task is one independent cell of a sweep: a labeled run body. The body
// must be self-contained (build its own hierarchy and workload instance)
// so tasks can execute concurrently; ctx is done when the run's timeout
// fires or the sweep is canceled.
type Task struct {
	// Workload and Config label the cell ("fft", "B+M+I"); together they
	// form the grid key.
	Workload, Config string
	// Run executes the cell and returns its outcome.
	Run func(ctx context.Context) (*Outcome, error)
}

// Outcome is what one run produces.
type Outcome struct {
	// Result is the engine's timing and traffic outcome.
	Result *engine.Result
	// GlobalWB and GlobalINV are the hierarchy's global line-operation
	// counts (inter-block runs only; zero otherwise).
	GlobalWB, GlobalINV int64
	// Metrics is the run's observability snapshot, when the sweep ran
	// with metrics enabled (nil otherwise). It flows into the cell's
	// RunRecord.
	Metrics *obs.Snapshot
	// Trace is the run's stall-span timeline for Chrome-trace export,
	// when the sweep ran with tracing enabled (nil otherwise).
	Trace *obs.Trace
}

// Cell is one completed grid entry.
type Cell struct {
	// Workload and Config echo the task labels.
	Workload, Config string
	// Outcome is the run's product; nil when Err is set.
	Outcome *Outcome
	// Err is the run's failure, labeled with the cell's workload and
	// config (timeouts and panics included).
	Err error
	// Wall is the host wall-clock duration of the run.
	Wall time.Duration
}

// PanicError is a guest panic captured by the orchestrator.
type PanicError struct {
	// Workload and Config label the run that panicked.
	Workload, Config string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s/%s: panic: %v", e.Workload, e.Config, e.Value)
}

// ErrorKind labels the failure for the error taxonomy.
func (e *PanicError) ErrorKind() string { return "panic" }

// TimeoutError reports a run that exceeded the per-run timeout.
type TimeoutError struct {
	// Workload and Config label the run that timed out.
	Workload, Config string
	// Timeout is the limit that fired.
	Timeout time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("%s/%s: run exceeded timeout %s", e.Workload, e.Config, e.Timeout)
}

// ErrorKind labels the failure for the error taxonomy.
func (e *TimeoutError) ErrorKind() string { return "timeout" }

// NilOutcomeError reports a task body that returned neither an outcome
// nor an error — a bug in the task, surfaced instead of recorded as a
// silently-empty success.
type NilOutcomeError struct {
	// Workload and Config label the broken task.
	Workload, Config string
}

func (e *NilOutcomeError) Error() string {
	return fmt.Sprintf("%s/%s: task returned neither outcome nor error", e.Workload, e.Config)
}

// ErrorKind labels the failure for the error taxonomy.
func (e *NilOutcomeError) ErrorKind() string { return "nil-outcome" }

// ReproError reports a fuzz-campaign failure together with the shrunk
// program that reproduces it, rendered in the internal/litmus DSL. The
// repro text flows into the cell's RunRecord, so a failed fuzz cell in a
// hic/v2 document is a self-contained regression test.
type ReproError struct {
	// Workload and Config label the failed fuzz cell.
	Workload, Config string
	// Repro is the shrunk program as a litmus-DSL composite literal.
	Repro string
	// Err is the underlying campaign failure.
	Err error
}

func (e *ReproError) Error() string {
	return fmt.Sprintf("%s/%s: %v\nshrunk repro:\n%s", e.Workload, e.Config, e.Err, e.Repro)
}

func (e *ReproError) Unwrap() error { return e.Err }

// ErrorKind labels the failure for the error taxonomy.
func (e *ReproError) ErrorKind() string { return "fuzz-repro" }

// ErrorKind classifies a cell failure for reporting: the error's own
// kind when it declares one (panic, timeout, livelock, coherence,
// nil-outcome), else a context-derived fallback, else "error". A nil
// error yields "".
func ErrorKind(err error) string {
	if err == nil {
		return ""
	}
	var k interface{ ErrorKind() string }
	if errors.As(err, &k) {
		return k.ErrorKind()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	if errors.Is(err, context.Canceled) {
		return "canceled"
	}
	return "error"
}

// Grid holds a completed sweep: every cell in task order, addressable by
// (workload, config) key. Iteration order is the task order regardless of
// which runs finished first.
type Grid struct {
	cells []Cell
	index map[[2]string]int
}

// Run executes tasks under opts and returns the completed grid. Cell i
// always corresponds to tasks[i]; with Parallel == 1 the tasks run
// serially in order. Canceling ctx fails the remaining cells with the
// context's error.
func Run(ctx context.Context, tasks []Task, opts Options) *Grid {
	g := &Grid{cells: make([]Cell, len(tasks)), index: make(map[[2]string]int, len(tasks))}
	for i, t := range tasks {
		g.index[[2]string{t.Workload, t.Config}] = i
	}
	workers := opts.Workers(len(tasks))
	if workers == 1 {
		for i := range tasks {
			g.cells[i] = runOne(ctx, tasks[i], opts)
		}
		return g
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				g.cells[i] = runOne(ctx, tasks[i], opts)
			}
		}()
	}
	for i := range tasks {
		next <- i
	}
	close(next)
	wg.Wait()
	return g
}

// bodyGrace is how long a canceled run's body gets to observe the
// cancellation and return before it is abandoned. The engine polls its
// context in the step loop, so a simulating body returns well within
// this; only a body wedged outside the engine can exhaust it.
const bodyGrace = 2 * time.Second

// runOne executes a single task with timeout and panic capture.
func runOne(parent context.Context, t Task, opts Options) Cell {
	start := time.Now()
	out, err := runBody(parent, t, opts.Timeout)
	return Cell{Workload: t.Workload, Config: t.Config, Outcome: out, Err: err, Wall: time.Since(start)}
}

// runBody is one execution of the task body.
func runBody(parent context.Context, t Task, timeout time.Duration) (*Outcome, error) {
	ctx := parent
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, timeout)
		defer cancel()
	}
	type outcome struct {
		out *Outcome
		err error
	}
	// finish maps a returned body outcome to the cell's result: nil+nil
	// is a task bug, and errors caused by our own cancellation collapse
	// to the timeout/canceled taxonomy.
	finish := func(o outcome) (*Outcome, error) {
		if o.err != nil {
			if timeout > 0 && errors.Is(o.err, context.DeadlineExceeded) {
				return nil, &TimeoutError{Workload: t.Workload, Config: t.Config, Timeout: timeout}
			}
			if errors.Is(o.err, context.Canceled) && parent.Err() != nil {
				return nil, fmt.Errorf("%s/%s: sweep canceled: %w", t.Workload, t.Config, context.Canceled)
			}
			return nil, o.err
		}
		if o.out == nil {
			return nil, &NilOutcomeError{Workload: t.Workload, Config: t.Config}
		}
		return o.out, nil
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: &PanicError{
					Workload: t.Workload, Config: t.Config,
					Value: p, Stack: debug.Stack(),
				}}
			}
		}()
		// Label the body's goroutines for CPU/goroutine profiles, so a
		// pprof capture of a sweep attributes samples to experiment cells.
		pprof.Do(ctx, pprof.Labels("workload", t.Workload, "config", t.Config), func(ctx context.Context) {
			out, err := t.Run(ctx)
			ch <- outcome{out, err}
		})
	}()
	select {
	case o := <-ch:
		return finish(o)
	case <-ctx.Done():
		// Give the body a grace period to observe the cancellation: the
		// engine stops its guests and returns, so the worker is not
		// leaked. A body that finished successfully in the race keeps its
		// success.
		timer := time.NewTimer(bodyGrace)
		defer timer.Stop()
		select {
		case o := <-ch:
			return finish(o)
		case <-timer.C:
		}
		if timeout > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, &TimeoutError{Workload: t.Workload, Config: t.Config, Timeout: timeout}
		}
		return nil, fmt.Errorf("%s/%s: sweep canceled: %w", t.Workload, t.Config, ctx.Err())
	}
}

// Cells returns every cell in task order.
func (g *Grid) Cells() []Cell { return g.cells }

// Get returns the cell for (workload, config), or nil if the sweep had no
// such task.
func (g *Grid) Get(workload, config string) *Cell {
	i, ok := g.index[[2]string{workload, config}]
	if !ok {
		return nil
	}
	return &g.cells[i]
}

// Result returns the engine result for (workload, config), or nil if the
// cell is absent or failed.
func (g *Grid) Result(workload, config string) *engine.Result {
	c := g.Get(workload, config)
	if c == nil || c.Outcome == nil {
		return nil
	}
	return c.Outcome.Result
}

// Err joins every cell failure in task order (nil if the sweep was fully
// successful). Cell errors are already labeled with their workload and
// config.
func (g *Grid) Err() error {
	var errs []error
	for i := range g.cells {
		if g.cells[i].Err != nil {
			errs = append(errs, g.cells[i].Err)
		}
	}
	return errors.Join(errs...)
}
