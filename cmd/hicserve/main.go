// Command hicserve runs sweep-as-a-service: an HTTP/JSON server that
// executes the same experiment sweeps the CLIs run and answers with the
// same canonical documents, fronted by a bounded job queue, per-tenant
// concurrency limits, and a content-addressed result cache.
//
// Usage:
//
//	hicserve [-addr :8080] [-workers N] [-queue N] [-per-tenant N]
//	         [-parallel N] [-timeout D] [-cache-dir DIR]
//
// Endpoints (see internal/serve):
//
//	POST /v2/sweeps             submit a sweep request
//	GET  /v2/sweeps/{id}        job status with live per-cell progress
//	GET  /v2/sweeps/{id}/result the finished document, byte-identical
//	                            to the equivalent CLI -json invocation
//	GET  /v2/metrics            server counters (hic-metrics/v1)
//	GET  /healthz               liveness
//
// hicsim takes -server URL to run any suite but table1 here instead of
// locally:
//
//	hicsim -json -scale test -server http://localhost:8080
//
// Results are cached by content address — a hash of the normalized
// request plus the server's code version. Because the simulator is
// deterministic, a cache hit returns exactly the bytes a fresh run
// would compute; a warm resubmit is answered at submit time with zero
// engine steps. -cache-dir persists the cache across restarts.
//
// -workers bounds concurrent sweeps, -queue the submitted backlog, and
// -per-tenant one tenant's in-flight jobs (tenants are named by the
// X-Hic-Tenant request header); each must be positive. Submits beyond
// either limit are refused with 429 and a Retry-After hint. -parallel and -timeout shape each
// sweep exactly like the CLI flags of the same names.
//
// The bound address is logged at startup, so -addr 127.0.0.1:0 picks a
// free port. SIGINT or SIGTERM stops the listener, lets in-flight
// requests finish for a few seconds, cancels running sweeps, and exits 0.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hicserve: ")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "concurrent sweep jobs")
	queue := flag.Int("queue", 16, "submitted-job backlog bound (beyond it submits get 429)")
	perTenant := flag.Int("per-tenant", 4, "per-tenant in-flight job bound")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count within each sweep")
	timeout := flag.Duration("timeout", 0, "per-run timeout within a sweep (0 = none)")
	cacheDir := flag.String("cache-dir", "", "persist the result cache to this directory (default: memory only)")
	flag.Parse()
	// serve.New would replace a non-positive count by its default, which
	// the startup log below would not show.
	for _, f := range []struct {
		name string
		n    int
	}{{"workers", *workers}, {"queue", *queue}, {"per-tenant", *perTenant}} {
		if f.n <= 0 {
			log.Fatalf("-%s %d: must be positive", f.name, f.n)
		}
	}

	s, err := serve.New(serve.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		PerTenant:  *perTenant,
		Parallel:   *parallel,
		Timeout:    *timeout,
		CacheDir:   *cacheDir,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Catch the signals before the address is logged, so a supervisor
	// that signals as soon as it reads the address still gets a clean exit.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("listening on %s (workers=%d queue=%d per-tenant=%d)", ln.Addr(), *workers, *queue, *perTenant)

	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		s.Close()
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process outright

	log.Printf("shutting down")
	drain, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	s.Close()
	log.Printf("stopped")
}
