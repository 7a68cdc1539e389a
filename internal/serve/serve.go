// Package serve is sweep-as-a-service: an HTTP/JSON front end over the
// same experiment sweeps the CLIs run, with a bounded job queue,
// per-tenant concurrency limits, and a two-level content-addressed
// result cache.
//
//	POST /v2/sweeps            submit a Request; 202 queued or joined,
//	                           200 done (sweep-store hit), 429 over
//	                           capacity; its id is the content address
//	GET  /v2/sweeps/{id}       job status with live per-cell progress
//	GET  /v2/sweeps/{id}/result the document bytes, byte-identical to
//	                           the equivalent CLI -json invocation
//	GET  /v2/metrics           server counters as a hic-metrics/v1
//	                           snapshot (cache hits, rejections, jobs)
//	GET  /healthz              liveness
//
// Caching is content-addressed at two levels. A sweep's ID is its
// normalized request's hash (which covers the code version), and the
// server keeps one job per ID: a resubmit of a done address is answered
// at submit time with zero engine steps, one of a queued or running
// address joins its job, and Store persists documents to -cache-dir
// across restarts. The cell cache (hic.WithCache) shares
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

	"repro/internal/envelope"
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
	// CacheDir persists finished documents across restarts ("" keeps
	// them in memory only).
	CacheDir string
}

// Server is the sweep service.
type Server struct {
	cfg   Config
	store *Store
	cells *runner.MemCache

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job // by content address, one per address
	inflight map[string]int

	// counters (guarded by mu); a submit not answered done is a store
	// miss
	submitted, completed, failed  int64
	rejectedQueue, rejectedTenant int64
	hits, corrupt, entries        int64
	queued, running               int64

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
	s.queued--
	s.running++
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
		// Outside mu: a persisted Put writes and renames a file, which
		// must not hold up status polls and submits.
		s.store.Put(job.ID, data)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	s.inflight[job.Tenant]--
	if err != nil {
		s.failed++
		job.finish(JobFailed, nil, err.Error())
		return
	}
	s.completed++
	s.entries++
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
	// Cache is "hit" when a finished document answered the submit.
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
	s.mu.Lock()
	job := s.live(key)
	s.mu.Unlock()
	var data []byte
	var stored, corrupt bool
	if job == nil {
		// Outside mu: a persisted lookup reads and hashes a file.
		data, stored, corrupt = s.store.Get(key)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if corrupt {
		s.corrupt++
	}
	if s.closed {
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	s.submitted++
	// Re-read: a concurrent submit may have created the job meanwhile.
	if job = s.live(key); job == nil && stored {
		// Born done: the -cache-dir holds this address's bytes.
		job = newJob(key, tenant, req)
		job.cacheHit = true
		job.finish(JobDone, data, "")
		s.jobs[key] = job
		s.entries++
	}
	if job != nil && job.state == JobDone {
		s.hits++
		writeJSON(w, http.StatusOK, SubmitReply{ID: key, State: JobDone, Cache: "hit"})
		return
	}
	if job != nil {
		// Join the queued or running job: no second compute, and no
		// queue or tenant slot.
		writeJSON(w, http.StatusAccepted, SubmitReply{ID: key, State: job.state, Cache: "miss"})
		return
	}
	if s.inflight[tenant] >= s.cfg.PerTenant {
		s.rejectedTenant++
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q at its in-flight limit (%d)", tenant, s.cfg.PerTenant))
		return
	}
	job = newJob(key, tenant, req)
	select {
	case s.queue <- job:
	default:
		s.rejectedQueue++
		w.Header().Set("Retry-After", strconv.Itoa(1+len(s.queue)/s.cfg.Workers))
		writeError(w, http.StatusTooManyRequests, "queue full")
		return
	}
	s.jobs[key] = job
	s.inflight[tenant]++
	s.queued++
	writeJSON(w, http.StatusAccepted, SubmitReply{ID: key, State: JobQueued, Cache: "miss"})
}

// live returns the job of an address unless it is absent or failed.
// Caller holds mu.
func (s *Server) live(key string) *Job {
	if j := s.jobs[key]; j != nil && j.state != JobFailed {
		return j
	}
	return nil
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
	s.mu.Lock()
	count("serve.store.hits", s.hits)
	count("serve.store.misses", s.submitted-s.hits)
	count("serve.store.corrupt", s.corrupt)
	count("serve.store.entries", s.entries)
	count("serve.cells.hits", s.cells.Hits())
	count("serve.cells.misses", s.cells.Misses())
	count("serve.cells.entries", int64(s.cells.Len()))
	count("serve.jobs.submitted", s.submitted)
	count("serve.jobs.completed", s.completed)
	count("serve.jobs.failed", s.failed)
	count("serve.jobs.queued", s.queued)
	count("serve.jobs.running", s.running)
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
	envelope.Encode(w, v)
}
