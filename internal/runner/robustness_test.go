package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/oracle"
	"repro/internal/topo"
)

func TestNilOutcomeFailsCell(t *testing.T) {
	tasks := []Task{{
		Workload: "fft", Config: "Base",
		Run: func(ctx context.Context) (*Outcome, error) { return nil, nil },
	}}
	g := Run(context.Background(), tasks, Options{Parallel: 1})
	c := g.Get("fft", "Base")
	var ne *NilOutcomeError
	if c.Err == nil || !errors.As(c.Err, &ne) {
		t.Fatalf("err = %v, want NilOutcomeError", c.Err)
	}
	if ne.Workload != "fft" || ne.Config != "Base" {
		t.Errorf("error labeled %s/%s, want fft/Base", ne.Workload, ne.Config)
	}
	if ErrorKind(c.Err) != "nil-outcome" {
		t.Errorf("kind = %q, want nil-outcome", ErrorKind(c.Err))
	}
	if rec := g.Records()[0]; rec.ErrorKind != "nil-outcome" {
		t.Errorf("record kind = %q, want nil-outcome", rec.ErrorKind)
	}
}

func TestErrorKindTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{&PanicError{Workload: "w", Config: "c", Value: "boom"}, "panic"},
		{&TimeoutError{Workload: "w", Config: "c", Timeout: time.Second}, "timeout"},
		{&NilOutcomeError{Workload: "w", Config: "c"}, "nil-outcome"},
		{&engine.LivelockError{Steps: 9}, "livelock"},
		{&oracle.ViolationError{Total: 1}, "coherence"},
		{fmt.Errorf("wrapped: %w", &engine.LivelockError{Steps: 1}), "livelock"},
		{fmt.Errorf("wrapped: %w", context.Canceled), "canceled"},
		{fmt.Errorf("wrapped: %w", context.DeadlineExceeded), "timeout"},
		{errors.New("plain"), "error"},
	}
	for _, c := range cases {
		if got := ErrorKind(c.err); got != c.want {
			t.Errorf("ErrorKind(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// The invariant panics in cache and topo stay panics — they mark
// impossible configurations, not run outcomes — and the runner's job is
// to surface each as a labeled PanicError instead of crashing the sweep.
func TestInvariantPanicsSurfaceAsPanicErrors(t *testing.T) {
	cases := []struct {
		name string
		body func(ctx context.Context) (*Outcome, error)
		msg  string // substring of the panic value
	}{
		{
			name: "cache-bad-config",
			body: func(ctx context.Context) (*Outcome, error) {
				cache.New(cache.Config{Bytes: 100, Ways: 3})
				return nil, nil
			},
			msg: "cache:",
		},
		{
			// topo's own tiling panic (blockDims) is defensive depth:
			// meshDims only emits factorizations blockDims can tile, and
			// degenerate inputs die earlier in the noc mesh validation —
			// which is the construction-time panic actually reachable
			// through topo.NewCustom.
			name: "topo-invalid-machine",
			body: func(ctx context.Context) (*Outcome, error) {
				topo.NewCustom(0, 4, 1, topo.DefaultParams())
				return nil, nil
			},
			msg: "invalid mesh",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tasks := []Task{{Workload: c.name, Config: "Base", Run: c.body}}
			g := Run(context.Background(), tasks, Options{Parallel: 1})
			cell := g.Get(c.name, "Base")
			var pe *PanicError
			if cell.Err == nil || !errors.As(cell.Err, &pe) {
				t.Fatalf("err = %v, want PanicError", cell.Err)
			}
			if pe.Workload != c.name {
				t.Errorf("panic labeled %s, want %s", pe.Workload, c.name)
			}
			if !strings.Contains(fmt.Sprint(pe.Value), c.msg) {
				t.Errorf("panic value %v lacks %q", pe.Value, c.msg)
			}
			if ErrorKind(cell.Err) != "panic" {
				t.Errorf("kind = %q, want panic", ErrorKind(cell.Err))
			}
			if len(pe.Stack) == 0 {
				t.Error("panic stack not captured")
			}
		})
	}
}
