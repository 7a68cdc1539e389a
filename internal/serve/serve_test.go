package serve

// End-to-end tests over httptest: the served bytes must be identical to
// what the local CLI code paths compute, warm resubmits must be
// answered from the sweep store without engine work, and the
// backpressure surface (429s, Retry-After, tenant limits) must behave
// as documented. Timing-sensitive queue tests stub the server's compute
// hook so a job blocks until the test releases it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	hic "repro"
	"repro/internal/litmus"
	"repro/internal/obs"
	"repro/internal/overhead"
)

// newTestServer starts a server and an httptest front end, returning a
// client aimed at it.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, &Client{BaseURL: hs.URL, PollInterval: 2 * time.Millisecond}
}

// metricsCounter fetches one counter from GET /v2/metrics.
func metricsCounter(t *testing.T, c *Client, name string) int64 {
	t.Helper()
	resp, err := http.Get(c.BaseURL + "/v2/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != obs.MetricsSchema {
		t.Fatalf("metrics schema = %q, want %q", snap.Schema, obs.MetricsSchema)
	}
	return snap.Counters[name]
}

func TestServedIntraBytesEqualLocalAndWarmResubmitHits(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, Parallel: 1})
	ctx := context.Background()

	// The local reference: exactly what `hicsim -suite intra -json`
	// computes for the same workload filter.
	res, err := hic.RunIntra(ctx, hic.ScaleTest, hic.WithParallel(1), hic.WithOnly("fft"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.Document(hic.ScaleTest).Encode(&want); err != nil {
		t.Fatal(err)
	}

	req := Request{Suite: "intra", Scale: "test", Workloads: []string{"fft"}}
	got, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served bytes differ from local compute:\nserved:\n%s\nlocal:\n%s", got, want.Bytes())
	}

	// Cold run: one store miss, no hits yet.
	if h, m := s.store.Hits(), s.store.Misses(); h != 0 || m != 1 {
		t.Fatalf("store hits/misses after cold run = %d/%d, want 0/1", h, m)
	}
	cellMisses := s.cells.Misses()
	if cellMisses == 0 {
		t.Fatal("cold run recorded no cell-cache misses (engine never ran?)")
	}

	// Warm resubmit: answered at submit time from the sweep store —
	// state done in the submit reply, zero additional engine work.
	reply, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if reply.State != JobDone || reply.Cache != "hit" {
		t.Fatalf("warm resubmit reply = %+v, want done/hit", reply)
	}
	again, err := c.Result(ctx, reply.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want.Bytes()) {
		t.Fatal("warm resubmit bytes differ from local compute")
	}
	if got := s.cells.Misses(); got != cellMisses {
		t.Fatalf("warm resubmit ran %d engine cells, want 0", got-cellMisses)
	}
	if got := metricsCounter(t, c, "serve.store.hits"); got < 1 {
		t.Fatalf("serve.store.hits = %d, want >= 1", got)
	}

	// The born-done job reports full progress and its cache provenance.
	st, err := c.Status(ctx, reply.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache != "hit" || st.State != JobDone {
		t.Fatalf("status = %+v, want done/hit", st)
	}
	wantCells := len(hic.IntraConfigs)
	if st.Progress == nil || st.Progress.Total != wantCells || st.Progress.Done != wantCells {
		t.Fatalf("progress = %+v, want %d/%d cells done", st.Progress, wantCells, wantCells)
	}
}

func TestServedLitmusAndOverheadBytesEqualLocal(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	t.Run("litmus", func(t *testing.T) {
		test, _ := litmus.SuiteTest("sb")
		cfg, _ := litmus.ConfigByName("Base")
		doc, err := litmus.SuiteDocument(ctx, []litmus.Test{test}, []litmus.Config{cfg}, litmus.Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := doc.Encode(&want); err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(ctx, Request{Suite: "litmus", Test: "sb", Config: "Base"})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatal("served litmus bytes differ from local compute")
		}
	})

	t.Run("overhead", func(t *testing.T) {
		var want bytes.Buffer
		if err := overhead.Compute(overhead.PaperMachine()).Document().Encode(&want); err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(ctx, Request{Suite: "overhead"})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatal("served overhead bytes differ from local compute")
		}
	})
}

// stubCompute replaces the server's compute hook with one that blocks
// until release closes, so queue occupancy is test-controlled.
func stubCompute(s *Server, release <-chan struct{}) {
	s.compute = func(ctx context.Context, _ Request, _ Env) ([]byte, error) {
		select {
		case <-release:
			return []byte("{}\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// litmusReq makes distinct valid requests (distinct content addresses)
// by varying the exploration budget.
func litmusReq(budget int) Request {
	return Request{Suite: "litmus", Test: "sb", Config: "Base", Budget: budget}
}

func TestQueueFullRefusesWithRetryAfter(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1, PerTenant: 8})
	release := make(chan struct{})
	stubCompute(s, release)
	ctx := context.Background()

	// First job occupies the worker, second fills the queue.
	r1, err := c.Submit(ctx, litmusReq(101))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, r1.ID, JobRunning)
	r2, err := c.Submit(ctx, litmusReq(102))
	if err != nil {
		t.Fatal(err)
	}

	// Third submit must be refused, not blocked.
	_, err = c.Submit(ctx, litmusReq(103))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: got %v, want 429", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("429 without a Retry-After hint: %+v", se)
	}
	if !strings.Contains(se.Message, "queue full") {
		t.Fatalf("429 message = %q, want queue-full diagnosis", se.Message)
	}
	if got := metricsCounter(t, c, "serve.rejected.queue_full"); got != 1 {
		t.Fatalf("serve.rejected.queue_full = %d, want 1", got)
	}

	close(release)
	for _, id := range []string{r1.ID, r2.ID} {
		if st, err := c.Wait(ctx, id); err != nil || st.State != JobDone {
			t.Fatalf("job %s: state %v err %v, want done", id, st.State, err)
		}
	}
}

func TestPerTenantLimit(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 16, PerTenant: 1})
	release := make(chan struct{})
	stubCompute(s, release)
	ctx := context.Background()

	alice := &Client{BaseURL: c.BaseURL, Tenant: "alice", PollInterval: c.PollInterval}
	bob := &Client{BaseURL: c.BaseURL, Tenant: "bob", PollInterval: c.PollInterval}

	r1, err := alice.Submit(ctx, litmusReq(201))
	if err != nil {
		t.Fatal(err)
	}

	// Alice is at her in-flight limit; Bob is not affected by it.
	_, err = alice.Submit(ctx, litmusReq(202))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("tenant-limited submit: got %v, want 429", err)
	}
	if !strings.Contains(se.Message, `"alice"`) {
		t.Fatalf("429 message = %q, want the tenant named", se.Message)
	}
	r2, err := bob.Submit(ctx, litmusReq(202))
	if err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}
	if got := metricsCounter(t, c, "serve.rejected.tenant_limit"); got != 1 {
		t.Fatalf("serve.rejected.tenant_limit = %d, want 1", got)
	}

	// Once Alice's job finishes her slot frees up.
	close(release)
	for _, id := range []string{r1.ID, r2.ID} {
		if st, err := c.Wait(ctx, id); err != nil || st.State != JobDone {
			t.Fatalf("job %s: state %v err %v, want done", id, st.State, err)
		}
	}
	if _, err := alice.Submit(ctx, litmusReq(203)); err != nil {
		t.Fatalf("post-completion submit refused: %v", err)
	}
}

// waitState polls until the job reaches state (or is already past it to
// done) so queue-occupancy tests don't race the worker pickup.
func waitState(t *testing.T, c *Client, id string, state JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == state || st.State == JobDone || st.State == JobFailed {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, state)
}

func TestHTTPErrorSurface(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	stubCompute(s, release)
	ctx := context.Background()

	t.Run("unknown-sweep-404", func(t *testing.T) {
		_, err := c.Status(ctx, "swp-999999")
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Fatalf("got %v, want 404", err)
		}
	})

	t.Run("result-before-done-409", func(t *testing.T) {
		reply, err := c.Submit(ctx, litmusReq(301))
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Result(ctx, reply.ID)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusConflict {
			t.Fatalf("got %v, want 409", err)
		}
	})

	t.Run("invalid-request-400", func(t *testing.T) {
		for name, req := range map[string]Request{
			"unknown suite":           {Suite: "nonesuch"},
			"litmus params on sweep":  {Suite: "intra", K: 3},
			"sim params on litmus":    {Suite: "litmus", Scale: "test"},
			"unknown workload":        {Suite: "intra", Workloads: []string{"nonesuch"}},
			"manycore needs blocks":   {Suite: "manycore"},
			"blocks on intra":         {Suite: "intra", Blocks: 4},
			"enumerate excludes test": {Suite: "litmus", Enumerate: true, Test: "sb"},
			"unknown litmus test":     {Suite: "litmus", Test: "nonesuch"},
		} {
			_, err := c.Submit(ctx, req)
			var se *StatusError
			if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
				t.Errorf("%s: got %v, want 400", name, err)
			}
		}
	})

	t.Run("oversized-request-400", func(t *testing.T) {
		// Each would list or build an unbounded sweep; Normalize refuses
		// it before the server lock is taken.
		for _, tc := range []struct {
			req  Request
			want string
		}{
			{Request{Suite: "manycore", Blocks: math.MaxInt}, fmt.Sprintf("blocks %d: want at most %d", math.MaxInt, MaxBlocks)},
			{Request{Suite: "manycore", Blocks: MaxBlocks + 1}, fmt.Sprintf("want at most %d", MaxBlocks)},
			{Request{Suite: "manycore", Blocks: 2, CoresPerBlock: math.MaxInt}, fmt.Sprintf("want at most %d", MaxCoresPerBlock)},
			{Request{Suite: "litmus", Enumerate: true, K: math.MaxInt}, fmt.Sprintf("want an op budget of at most %d", MaxK)},
		} {
			ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			_, err := c.Submit(ctx, tc.req)
			cancel()
			var se *StatusError
			if !errors.As(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(se.Message, tc.want) {
				t.Errorf("%+v: got %v, want 400 %q", tc.req, err, tc.want)
			}
		}
	})

	t.Run("unknown-field-400", func(t *testing.T) {
		// The removed v1-envelope, adjacent-swap and block-parallel
		// fields must be refused, not silently dropped into a different
		// layout.
		for _, body := range []string{
			`{"suite":"intra","bogus":1}`,
			`{"suite":"intra","version":"v1"}`,
			`{"suite":"litmus","swap":true}`,
			`{"suite":"manycore","blocks":2,"block_parallel":true}`,
		} {
			resp, err := http.Post(c.BaseURL+"/v2/sweeps", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s accepted: %d", body, resp.StatusCode)
			}
		}
	})
}

func TestRequestKeyCanonicalization(t *testing.T) {
	key := func(r Request) string {
		t.Helper()
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		return r.Key()
	}

	same := [][2]Request{
		{{Suite: "intra"}, {Suite: "intra", Scale: "test"}},
		{
			{Suite: "intra", Workloads: []string{"fft", "barnes", "fft"}},
			{Suite: "intra", Workloads: []string{"barnes", "fft"}},
		},
		// K is inert without enumerate; manycore defaults its core count.
		{{Suite: "litmus", K: 7}, {Suite: "litmus"}},
		{{Suite: "manycore", Blocks: 2}, {Suite: "manycore", Blocks: 2, CoresPerBlock: 8}},
	}
	for _, pair := range same {
		if a, b := key(pair[0]), key(pair[1]); a != b {
			t.Errorf("equivalent requests hash differently:\n%+v\n%+v", pair[0], pair[1])
		}
	}

	base := key(Request{Suite: "intra"})
	for name, r := range map[string]Request{
		"suite":     {Suite: "inter"},
		"scale":     {Suite: "intra", Scale: "bench"},
		"workloads": {Suite: "intra", Workloads: []string{"fft"}},
		"coherence": {Suite: "intra", Coherence: true},
		"metrics":   {Suite: "intra", Metrics: true},
		"seed":      {Suite: "intra", Seed: 1},
	} {
		if key(r) == base {
			t.Errorf("%s does not move the content address", name)
		}
	}
}

func TestComputeFailureIsNotCached(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	boom := true
	s.compute = func(context.Context, Request, Env) ([]byte, error) {
		if boom {
			return nil, fmt.Errorf("synthetic failure")
		}
		return []byte("{}\n"), nil
	}
	ctx := context.Background()

	reply, err := c.Submit(ctx, litmusReq(401))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, reply.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, "synthetic failure") {
		t.Fatalf("status = %+v, want failed with the cause", st)
	}
	if _, err := c.Result(ctx, reply.ID); err == nil {
		t.Fatal("failed job served a result")
	}

	// The failure must not poison the store: a resubmit recomputes.
	boom = false
	data, err := c.Run(ctx, litmusReq(401))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{}\n" {
		t.Fatalf("resubmit after failure returned %q", data)
	}
	if got := metricsCounter(t, c, "serve.jobs.failed"); got != 1 {
		t.Fatalf("serve.jobs.failed = %d, want 1", got)
	}
}

// TestCloseCancelsRunningLitmusJob: Close cancels the workers' context,
// and a running litmus enumeration honors it, so the job reports failed
// instead of finishing its seconds-long sweep while Close waits.
func TestCloseCancelsRunningLitmusJob(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, Parallel: 1})
	ctx := context.Background()
	reply, err := c.Submit(ctx, Request{Suite: "litmus", Enumerate: true, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, reply.ID, JobRunning)
	s.Close()
	st, err := c.Status(ctx, reply.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, context.Canceled.Error()) {
		t.Fatalf("status = %+v, want failed with %q", st, context.Canceled)
	}
	if got := metricsCounter(t, c, "serve.jobs.failed"); got != 1 {
		t.Fatalf("serve.jobs.failed = %d, want 1", got)
	}
}

func TestStorePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := Request{Suite: "intra", Workloads: []string{"fft"}}

	// The local reference: Request.Run, what hicsim computes in-process.
	local := req
	if err := local.Normalize(); err != nil {
		t.Fatal(err)
	}
	want, err := local.compute(ctx, Env{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	_, c1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	first, err := c1.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Fatal("served bytes differ from the local run")
	}

	// A fresh server over the same directory answers at submit time.
	s2, c2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	reply, err := c2.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Cache != "hit" || reply.State != JobDone {
		t.Fatalf("restarted server reply = %+v, want done/hit", reply)
	}
	data, err := c2.Result(ctx, reply.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("persisted bytes differ from the local run")
	}
	if s2.store.Hits() != 1 {
		t.Fatalf("restarted store hits = %d, want 1", s2.store.Hits())
	}

	// A damaged entry is never served: the next server counts it as
	// corrupt and as a miss, deletes it, and recomputes the local bytes
	// (whose Put writes a sound entry for the next case).
	entry := filepath.Join(dir, local.Key()+".entry")
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"flipped-byte", func(b []byte) []byte { b[len(b)-2] ^= 0x20; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file, err := os.ReadFile(entry)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(entry, tc.damage(file), 0o644); err != nil {
				t.Fatal(err)
			}
			s, c := newTestServer(t, Config{Workers: 1, CacheDir: dir})
			reply, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Cache != "miss" {
				t.Fatalf("damaged entry reply = %+v, want a miss", reply)
			}
			if _, err := c.Wait(ctx, reply.ID); err != nil {
				t.Fatal(err)
			}
			data, err := c.Result(ctx, reply.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want) {
				t.Fatal("recomputed bytes differ from the local run")
			}
			if h, m := s.store.Hits(), s.store.Misses(); h != 0 || m != 1 {
				t.Fatalf("store hits/misses = %d/%d, want 0/1", h, m)
			}
			if got := metricsCounter(t, c, "serve.store.corrupt"); got != 1 {
				t.Fatalf("serve.store.corrupt = %d, want 1", got)
			}
		})
	}
}

func TestCellsFollowTaskOrder(t *testing.T) {
	// Per-cell progress predicts each sweep's cells; they must be the
	// cells the sweep records, in the order it records them.
	for _, req := range []Request{
		{Suite: "intra", Workloads: []string{"fft"}},
		{Suite: "inter"},
		{Suite: "all", Workloads: []string{"jacobi", "fft"}},
		{Suite: "manycore", Blocks: 2},
	} {
		t.Run(req.Suite, func(t *testing.T) {
			if err := req.Normalize(); err != nil {
				t.Fatal(err)
			}
			res, err := req.Run(context.Background(), Env{Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			var ran [][2]string
			for _, r := range res.Doc.Runs {
				ran = append(ran, [2]string{r.Workload, r.Config})
			}
			if got := req.cells(req.Workloads); fmt.Sprint(got) != fmt.Sprint(ran) {
				t.Errorf("cells = %v\nsweep ran %v", got, ran)
			}
		})
	}
}

func TestRequestOptionsReachTheRun(t *testing.T) {
	// Every request field and environment setting must land in the run
	// options: a field that parses but is never wired computes the
	// wrong document under a correct-looking address.
	r := Request{Suite: "intra", Workloads: []string{"fft"}, Coherence: true,
		Metrics: true, Faults: "drop-wb@1", Seed: 7}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	o := hic.NewRunOptions(r.options(Env{Parallel: 5, Timeout: 30 * time.Second, Trace: true})...)
	if o.Parallel != 5 || o.Timeout != 30*time.Second || !o.Trace {
		t.Errorf("environment = %d/%s/%v, want 5/30s/true", o.Parallel, o.Timeout, o.Trace)
	}
	if !o.CheckCoherence || !o.Metrics || o.Faults != "drop-wb@1" || o.Seed != 7 ||
		fmt.Sprint(o.Only) != "[fft]" {
		t.Errorf("request fields = coherence %v, metrics %v, faults %q, seed %d, only %v",
			o.CheckCoherence, o.Metrics, o.Faults, o.Seed, o.Only)
	}
}

// TestStoreLookupDoesNotBlockStatus: a store lookup can read and hash a
// persisted entry, so handleSubmit makes it outside the server mutex
// (the store has its own lock). With the store held busy, a submit
// waits on it, but a status poll for an existing job still answers.
func TestStoreLookupDoesNotBlockStatus(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	stubCompute(s, release)
	ctx := context.Background()
	r1, err := c.Submit(ctx, litmusReq(301))
	if err != nil {
		t.Fatal(err)
	}

	s.store.mu.Lock()
	var unlock sync.Once
	defer unlock.Do(s.store.mu.Unlock)
	submitted := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctx, litmusReq(302))
		submitted <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the submit reach the store
	sctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if _, err := c.Status(sctx, r1.ID); err != nil {
		t.Fatalf("status poll while the store is busy: %v", err)
	}
	unlock.Do(s.store.mu.Unlock)
	if err := <-submitted; err != nil {
		t.Fatalf("submit after the store freed: %v", err)
	}
}
