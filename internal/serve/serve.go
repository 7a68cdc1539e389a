// Package serve is sweep-as-a-service: an HTTP/JSON front end over the
// same experiment sweeps the CLIs run, with a bounded job queue,
// per-tenant concurrency limits, and a two-level content-addressed
// result cache.
//
//	POST /v2/sweeps            submit a Request; 202 queued, 200 done
//	                           (sweep-store hit), 429 over capacity
//	GET  /v2/sweeps/{id}       job status with live per-cell progress
//	GET  /v2/sweeps/{id}/result the document bytes, byte-identical to
//	                           the equivalent CLI -json invocation
//	GET  /v2/metrics           server counters as a hic-metrics/v1
//	                           snapshot (cache hits, rejections, jobs)
//	GET  /healthz              liveness
//
// Caching is content-addressed at two levels. The sweep store maps a
// normalized request's hash (which covers the code version) to the
// finished document bytes: a warm resubmit is answered at submit time
// with zero engine steps. The cell cache (hic.WithCache) shares
// individual simulation outcomes across jobs whose option sets agree,
// so overlapping requests — "intra" then "all", or per-workload slices
// of the same sweep — reuse each other's work. Determinism makes both
// levels exact: a hit returns the same bytes a fresh run would compute.
//
// Backpressure is explicit: a full queue or a tenant at its in-flight
// limit is refused with 429 and a Retry-After hint, never silently
// blocked, so clients can implement honest retry policies.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// Config shapes a server.
type Config struct {
	// Workers is how many sweep jobs run concurrently (default 2).
	Workers int
	// QueueDepth bounds the submitted-but-not-finished backlog
	// (default 16); submits beyond it are refused with 429.
	QueueDepth int
	// PerTenant bounds one tenant's queued+running jobs (default 4).
	PerTenant int
	// Parallel is the per-sweep worker count (default GOMAXPROCS).
	Parallel int
	// Timeout bounds each individual simulation run (0 = none).
	Timeout time.Duration
	// CacheDir persists the sweep store across restarts ("" keeps it
	// in memory only).
	CacheDir string
}

// Server is the sweep service.
type Server struct {
	cfg   Config
	store *Store
	cells *runner.MemCache

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	inflight map[string]int
	seq      int

	// counters (guarded by mu)
	submitted, completed, failed  int64
	rejectedQueue, rejectedTenant int64

	queue  chan *Job
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// compute runs one request; tests stub it to control timing.
	compute func(ctx context.Context, req Request, env Env) ([]byte, error)
}

// New builds a server and starts its workers; Close stops them.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.PerTenant <= 0 {
		cfg.PerTenant = 4
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	store, err := NewStore(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		store:    store,
		cells:    runner.NewMemCache(),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]int),
		queue:    make(chan *Job, cfg.QueueDepth),
		ctx:      ctx,
		cancel:   cancel,
		compute: func(ctx context.Context, req Request, env Env) ([]byte, error) {
			return req.compute(ctx, env)
		},
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close cancels running sweeps, refuses further submits, and waits for
// the workers to exit. Closing a closed server only waits.
func (s *Server) Close() {
	s.cancel()
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !wasClosed {
		close(s.queue)
	}
	s.wg.Wait()
}

// worker drains the queue until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.run(job)
	}
}

// run executes one job end to end.
func (s *Server) run(job *Job) {
	s.mu.Lock()
	job.state = JobRunning
	s.mu.Unlock()

	env := Env{
		Parallel: s.cfg.Parallel,
		Timeout:  s.cfg.Timeout,
		Cells:    s.cells,
		Observer: func(w, c string) {
			s.mu.Lock()
			job.markCell(w, c)
			s.mu.Unlock()
		},
	}
	data, err := s.compute(s.ctx, job.Req, env)
	if err == nil {
		// The store has its own lock; a persisted Put writes and renames
		// a file, which must not hold up status polls and submits.
		s.store.Put(job.Key, data)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight[job.Tenant]--
	if err != nil {
		s.failed++
		job.finish(JobFailed, nil, err.Error())
		return
	}
	s.completed++
	job.finish(JobDone, data, "")
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v2/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v2/sweeps/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v2/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// TenantHeader names the submitting tenant; absent means "anonymous".
const TenantHeader = "X-Hic-Tenant"

// SubmitReply is the wire response to POST /v2/sweeps.
type SubmitReply struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Cache is "hit" when the sweep store answered at submit time.
	Cache string `json:"cache"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("request body: %v", err))
		return
	}
	if err := req.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = "anonymous"
	}
	key := req.Key()
	// Outside mu: the store has its own lock, and a persisted lookup
	// reads and hashes a file.
	data, stored := s.store.Get(key)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	s.submitted++
	if stored {
		// Born done: the store already holds this address's bytes.
		job := newJob(s.nextID(), tenant, req, key)
		job.cacheHit = true
		job.finish(JobDone, data, "")
		s.jobs[job.ID] = job
		writeJSON(w, http.StatusOK, SubmitReply{ID: job.ID, State: JobDone, Cache: "hit"})
		return
	}
	if s.inflight[tenant] >= s.cfg.PerTenant {
		s.rejectedTenant++
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q at its in-flight limit (%d)", tenant, s.cfg.PerTenant))
		return
	}
	job := newJob(s.nextID(), tenant, req, key)
	select {
	case s.queue <- job:
	default:
		s.rejectedQueue++
		w.Header().Set("Retry-After", strconv.Itoa(1+len(s.queue)/s.cfg.Workers))
		writeError(w, http.StatusTooManyRequests, "queue full")
		return
	}
	s.jobs[job.ID] = job
	s.inflight[tenant]++
	writeJSON(w, http.StatusAccepted, SubmitReply{ID: job.ID, State: JobQueued, Cache: "miss"})
}

// nextID mints a job ID. Caller holds mu.
func (s *Server) nextID() string {
	s.seq++
	return fmt.Sprintf("swp-%06d", s.seq)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var st Status
	if ok {
		st = job.status()
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var state JobState
	var data []byte
	var errText string
	if ok {
		state, data, errText = job.state, job.result, job.errText
	}
	s.mu.Unlock()
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, "unknown sweep")
	case state == JobFailed:
		writeError(w, http.StatusInternalServerError, errText)
	case state != JobDone:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, fmt.Sprintf("sweep is %s; retry when done", state))
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	}
}

// handleMetrics exports the server's counters as a hic-metrics/v1
// snapshot, the same format the simulator's observability layer emits,
// so existing tooling (and the CI cache-hit gate) can read it.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := &obs.Snapshot{Schema: obs.MetricsSchema, Counters: map[string]int64{}}
	count := func(name string, v int64) {
		if v != 0 {
			snap.Counters[name] = v
		}
	}
	// The store's counters are read before taking mu: the store's lock
	// can be held through a file read or write.
	count("serve.store.hits", s.store.Hits())
	count("serve.store.misses", s.store.Misses())
	count("serve.store.corrupt", s.store.Corrupt())
	count("serve.store.entries", int64(s.store.Len()))

	s.mu.Lock()
	var queued, running int64
	for _, j := range s.jobs {
		switch j.state {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		}
	}
	count("serve.cells.hits", s.cells.Hits())
	count("serve.cells.misses", s.cells.Misses())
	count("serve.cells.entries", int64(s.cells.Len()))
	count("serve.jobs.submitted", s.submitted)
	count("serve.jobs.completed", s.completed)
	count("serve.jobs.failed", s.failed)
	count("serve.jobs.queued", queued)
	count("serve.jobs.running", running)
	count("serve.rejected.queue_full", s.rejectedQueue)
	count("serve.rejected.tenant_limit", s.rejectedTenant)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

// errorReply is the JSON error body.
type errorReply struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorReply{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
