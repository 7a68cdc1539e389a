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
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	hic "repro"
	"repro/internal/fuzzgen"
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
	if h, m := metricsCounter(t, c, "serve.store.hits"), metricsCounter(t, c, "serve.store.misses"); h != 0 || m != 1 {
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
	key := req
	if err := key.Normalize(); err != nil {
		t.Fatal(err)
	}
	if reply.State != JobDone || reply.Cache != "hit" || reply.ID != key.Key() {
		t.Fatalf("warm resubmit reply = %+v, want done/hit with the content address as ID", reply)
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

	// The address's one job is the cold run's: done, computed (a cache
	// miss), with full progress.
	st, err := c.Status(ctx, reply.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache != "miss" || st.State != JobDone {
		t.Fatalf("status = %+v, want done/miss", st)
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

	t.Run("fuzz", func(t *testing.T) {
		rep, err := fuzzgen.Campaign(ctx, fuzzgen.Options{SeedLo: 1, SeedHi: 5, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := rep.Encode(&want); err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(ctx, Request{Suite: "fuzz", Seeds: "1:5"})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatal("served fuzz bytes differ from local compute")
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
		_, err := c.Status(ctx, strings.Repeat("0", 64))
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
			"reversed seeds":          {Suite: "fuzz", Seeds: "9:3"},
			"empty seeds":             {Suite: "fuzz", Seeds: "3:3"},
			"malformed seeds":         {Suite: "fuzz", Seeds: "1-201"},
			"negative mutants":        {Suite: "fuzz", Mutants: -1},
			"unknown fuzz config":     {Suite: "fuzz", Config: "nonesuch"},
			"seeds on litmus":         {Suite: "litmus", Seeds: "1:3"},
			"mutants on intra":        {Suite: "intra", Mutants: 2},
			"seeds on overhead":       {Suite: "overhead", Seeds: "1:3"},
			"scale on fuzz":           {Suite: "fuzz", Scale: "test"},
			"workloads on fuzz":       {Suite: "fuzz", Workloads: []string{"fft"}},
			"test on fuzz":            {Suite: "fuzz", Test: "sb"},
			"enumerate on fuzz":       {Suite: "fuzz", Enumerate: true},
		} {
			_, err := c.Submit(ctx, req)
			var se *StatusError
			if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
				t.Errorf("%s: got %v, want 400", name, err)
			}
		}
	})

	t.Run("oversized-request-400", func(t *testing.T) {
		// Each would list, build or allocate an unbounded computation;
		// Normalize refuses it before the server lock is taken.
		for _, tc := range []struct {
			req  Request
			want string
		}{
			{Request{Suite: "manycore", Blocks: math.MaxInt}, fmt.Sprintf("blocks %d: want at most %d", math.MaxInt, MaxBlocks)},
			{Request{Suite: "manycore", Blocks: MaxBlocks + 1}, fmt.Sprintf("want at most %d", MaxBlocks)},
			{Request{Suite: "manycore", Blocks: 2, CoresPerBlock: math.MaxInt}, fmt.Sprintf("want at most %d", MaxCoresPerBlock)},
			{Request{Suite: "litmus", Enumerate: true, K: math.MaxInt}, fmt.Sprintf("want an op budget of at most %d", MaxK)},
			{Request{Suite: "fuzz", Seeds: "0:18446744073709551615"}, fmt.Sprintf("want at most %d seeds", MaxSeeds)},
			{Request{Suite: "fuzz", Seeds: fmt.Sprintf("1:%d", MaxSeeds+2)}, fmt.Sprintf("want at most %d seeds", MaxSeeds)},
			{Request{Suite: "fuzz", Mutants: 1_000_000_000_000}, fmt.Sprintf("mutants 1000000000000: want 0 to %d", MaxMutants)},
			{Request{Suite: "fuzz", Mutants: MaxMutants + 1}, fmt.Sprintf("want 0 to %d", MaxMutants)},
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

	t.Run("inert-field-400", func(t *testing.T) {
		// Every field a suite does not use is refused there, so an inert
		// field never moves a content address.
		for suite, fields := range suiteFields {
			for name, f := range requestFields() {
				if Uses(suite, name) {
					continue
				}
				req := Request{Suite: suite}
				v := reflect.ValueOf(&req).Elem().FieldByIndex(f.Index)
				switch v.Kind() {
				case reflect.Bool:
					v.SetBool(true)
				case reflect.Int, reflect.Int64:
					v.SetInt(3)
				case reflect.String:
					v.SetString("x")
				case reflect.Slice:
					v.Set(reflect.ValueOf([]string{"fft"}))
				default:
					t.Fatalf("field %s has kind %s; give it a nonzero value", name, v.Kind())
				}
				_, err := c.Submit(ctx, req)
				want := name + " does not apply to suite " + suite
				var se *StatusError
				if !errors.As(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(se.Message, want) {
					t.Errorf("%s (suite %s uses %q): got %v, want 400 %q", name, suite, fields, err, want)
				}
			}
		}
	})

	t.Run("unknown-field-400", func(t *testing.T) {
		// The removed v1-envelope, adjacent-swap, block-parallel,
		// fault-plan and schedule-cap fields must be refused, not
		// silently dropped into a different layout or answered with
		// bytes computed without them.
		for _, body := range []string{
			`{"suite":"intra","bogus":1}`,
			`{"suite":"intra","version":"v1"}`,
			`{"suite":"litmus","swap":true}`,
			`{"suite":"manycore","blocks":2,"block_parallel":true}`,
			`{"suite":"intra","faults":"drop-wb@1"}`,
			`{"suite":"litmus","max_schedules":3}`,
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
		// The sweep runs the powers of two up to blocks, so 7 runs 1, 2, 4.
		{{Suite: "manycore", Blocks: 4}, {Suite: "manycore", Blocks: 7}},
		// The campaign defaults its seed range and mutant count.
		{{Suite: "fuzz"}, {Suite: "fuzz", Seeds: "1:201", Mutants: 2}},
		{{Suite: "fuzz", Seeds: "05:009"}, {Suite: "fuzz", Seeds: "5:9"}},
		// An empty list sets nothing, so no suite refuses it.
		{{Suite: "overhead", Workloads: []string{}}, {Suite: "overhead"}},
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
	fuzz := key(Request{Suite: "fuzz"})
	for name, r := range map[string]Request{
		"seeds":   {Suite: "fuzz", Seeds: "1:9"},
		"mutants": {Suite: "fuzz", Mutants: 3},
		"config":  {Suite: "fuzz", Config: "Base"},
	} {
		if key(r) == fuzz {
			t.Errorf("fuzz %s does not move the content address", name)
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
	_, c2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	reply, err := c2.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Cache != "hit" || reply.State != JobDone {
		t.Fatalf("restarted server reply = %+v, want done/hit", reply)
	}
	// The born-done job reports full progress and its cache provenance.
	st, err := c2.Status(ctx, reply.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache != "hit" || st.State != JobDone {
		t.Fatalf("restarted status = %+v, want done/hit", st)
	}
	wantCells := len(hic.IntraConfigs)
	if st.Progress == nil || st.Progress.Total != wantCells || st.Progress.Done != wantCells {
		t.Fatalf("progress = %+v, want %d/%d cells done", st.Progress, wantCells, wantCells)
	}
	data, err := c2.Result(ctx, reply.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("persisted bytes differ from the local run")
	}
	if got := metricsCounter(t, c2, "serve.store.hits"); got != 1 {
		t.Fatalf("restarted store hits = %d, want 1", got)
	}

	// A damaged entry is never served: the next server counts it as
	// corrupt and as a miss, deletes it, and recomputes the local bytes
	// (whose Put writes a sound entry for the next case).
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(store.dir, local.Key()+".entry")
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
			_, c := newTestServer(t, Config{Workers: 1, CacheDir: dir})
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
			if h, m := metricsCounter(t, c, "serve.store.hits"), metricsCounter(t, c, "serve.store.misses"); h != 0 || m != 1 {
				t.Fatalf("store hits/misses = %d/%d, want 0/1", h, m)
			}
			if got := metricsCounter(t, c, "serve.store.corrupt"); got != 1 {
				t.Fatalf("serve.store.corrupt = %d, want 1", got)
			}
		})
	}
}

// TestStorePutFailedRenameLeavesNoTempFile: when the entry cannot be
// renamed into place (here a directory holds its name), Put removes its
// temp file instead of leaving a put-* file in the cache dir, and
// nothing is persisted.
func TestStorePutFailedRenameLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	if err := os.Mkdir(filepath.Join(s.dir, key+".entry"), 0o755); err != nil {
		t.Fatal(err)
	}
	s.Put(key, []byte("{}\n"))
	if left, _ := filepath.Glob(filepath.Join(s.dir, "put-*")); len(left) > 0 {
		t.Fatalf("failed rename left %v in the cache dir", left)
	}
	if data, ok, corrupt := s.Get(key); ok || corrupt {
		t.Fatalf("Get after a failed Put = %q, %v, %v; want nothing", data, ok, corrupt)
	}
}

// TestStoreCountsDamagedFileOnce: only the lookup that deletes a damaged
// entry reports it corrupt, so lookups racing on one file count it once.
func TestStoreCountsDamagedFileOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("cd", 32)
	if err := os.WriteFile(filepath.Join(s.dir, key+".entry"), []byte("bad\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const lookups = 8
	var wg sync.WaitGroup
	var corrupt atomic.Int64
	for range lookups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok, bad := s.Get(key); ok {
				t.Error("damaged entry served")
			} else if bad {
				corrupt.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := corrupt.Load(); got != 1 {
		t.Fatalf("%d lookups reported the damaged entry corrupt, want 1", got)
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
		Metrics: true, Seed: 7}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	o := hic.NewRunOptions(r.options(Env{Parallel: 5, Timeout: 30 * time.Second, Trace: true})...)
	if o.Parallel != 5 || o.Timeout != 30*time.Second || !o.Trace {
		t.Errorf("environment = %d/%s/%v, want 5/30s/true", o.Parallel, o.Timeout, o.Trace)
	}
	if !o.CheckCoherence || !o.Metrics || o.Seed != 7 || fmt.Sprint(o.Only) != "[fft]" {
		t.Errorf("request fields = coherence %v, metrics %v, seed %d, only %v",
			o.CheckCoherence, o.Metrics, o.Seed, o.Only)
	}
}

// TestStoreLookupDoesNotBlockStatus: a store lookup reads and hashes a
// persisted entry, so handleSubmit makes it outside the server mutex.
// With the disk held busy (the entry is a FIFO nobody writes yet), a
// submit waits on it, but a status poll for an existing job still
// answers.
func TestStoreLookupDoesNotBlockStatus(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	release := make(chan struct{})
	defer close(release)
	stubCompute(s, release)
	ctx := context.Background()
	r1, err := c.Submit(ctx, litmusReq(301))
	if err != nil {
		t.Fatal(err)
	}

	slow := litmusReq(302)
	if err := slow.Normalize(); err != nil {
		t.Fatal(err)
	}
	fifo := filepath.Join(s.store.dir, slow.Key()+".entry")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Fatal(err)
	}
	// The writer's open blocks until the lookup opens the FIFO to read,
	// whichever comes first; the lookup's read then blocks until free
	// lets the framed bytes through, which make it a hit.
	gate := make(chan struct{})
	var unblock sync.Once
	free := func() { unblock.Do(func() { close(gate) }) }
	defer free()
	go func() {
		f, err := os.OpenFile(fifo, os.O_WRONLY, 0)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		<-gate
		fmt.Fprintf(f, "%x\n%s", sha256.Sum256([]byte("{}\n")), "{}\n")
	}()
	type answer struct {
		reply SubmitReply
		err   error
	}
	submitted := make(chan answer, 1)
	go func() {
		reply, err := c.Submit(ctx, slow)
		submitted <- answer{reply, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the submit reach the disk
	sctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if _, err := c.Status(sctx, r1.ID); err != nil {
		t.Fatalf("status poll while the disk is busy: %v", err)
	}
	select {
	case a := <-submitted:
		t.Fatalf("submit answered %+v, %v before the disk freed", a.reply, a.err)
	default:
	}
	free()
	if a := <-submitted; a.err != nil || a.reply.State != JobDone || a.reply.Cache != "hit" {
		t.Fatalf("submit after the disk freed = %+v, %v; want done/hit", a.reply, a.err)
	}
}

// instantCompute replaces the server's compute hook with one that
// returns at once and counts its calls.
func instantCompute(s *Server) *atomic.Int64 {
	var calls atomic.Int64
	s.compute = func(context.Context, Request, Env) ([]byte, error) {
		calls.Add(1)
		return []byte("{}\n"), nil
	}
	return &calls
}

// TestWarmResubmitsKeepOneJob: a job's ID is its content address, so
// resubmitting a finished address answers from its job and mints none.
func TestWarmResubmitsKeepOneJob(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	calls := instantCompute(s)
	ctx := context.Background()
	if _, err := c.Run(ctx, litmusReq(501)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		reply, err := c.Submit(ctx, litmusReq(501))
		if err != nil {
			t.Fatal(err)
		}
		if reply.State != JobDone || reply.Cache != "hit" {
			t.Fatalf("warm resubmit %d = %+v, want done/hit", i, reply)
		}
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 1 || calls.Load() != 1 {
		t.Fatalf("after 1,001 submits of one address: %d jobs, %d computes; want 1 and 1", jobs, calls.Load())
	}
	if h, m := metricsCounter(t, c, "serve.store.hits"), metricsCounter(t, c, "serve.store.misses"); h != 1000 || m != 1 {
		t.Fatalf("store hits/misses = %d/%d, want 1000/1", h, m)
	}
}

// TestConcurrentIdenticalSubmitsComputeOnce: a submit that finds its
// address queued or running joins that job instead of computing again.
func TestConcurrentIdenticalSubmitsComputeOnce(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	stubCompute(s, release)
	var calls atomic.Int64
	block := s.compute
	s.compute = func(ctx context.Context, req Request, env Env) ([]byte, error) {
		calls.Add(1)
		return block(ctx, req, env)
	}
	ctx := context.Background()
	results := make(chan []byte, 2)
	for range 2 {
		go func() {
			data, err := c.Run(ctx, litmusReq(601))
			if err != nil {
				t.Error(err)
			}
			results <- data
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); metricsCounter(t, c, "serve.jobs.submitted") < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the two submits never arrived")
		}
	}
	close(release)
	for range 2 {
		if data := <-results; string(data) != "{}\n" {
			t.Errorf("client got %q, want the document", data)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("two identical cold submits computed %d times, want 1", calls.Load())
	}
}

// countingTransport counts the HTTP round trips a client makes.
type countingTransport struct{ n atomic.Int64 }

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct.n.Add(1)
	return http.DefaultTransport.RoundTrip(req)
}

// TestClientRunWarmMakesTwoRequests: a submit answered done needs no
// status poll, only the result fetch.
func TestClientRunWarmMakesTwoRequests(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	instantCompute(s)
	ctx := context.Background()
	if _, err := c.Run(ctx, litmusReq(701)); err != nil {
		t.Fatal(err)
	}
	ct := &countingTransport{}
	warm := &Client{BaseURL: c.BaseURL, HTTP: &http.Client{Transport: ct}, PollInterval: c.PollInterval}
	data, err := warm.Run(ctx, litmusReq(701))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{}\n" || ct.n.Load() != 2 {
		t.Fatalf("warm Run = %q in %d requests, want the document in 2", data, ct.n.Load())
	}
}

// TestQueuedRunningCounters: serve.jobs.queued and .running follow each
// job through its state transitions.
func TestQueuedRunningCounters(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	stubCompute(s, release)
	ctx := context.Background()
	r1, err := c.Submit(ctx, litmusReq(801))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, r1.ID, JobRunning)
	r2, err := c.Submit(ctx, litmusReq(802))
	if err != nil {
		t.Fatal(err)
	}
	if q, r := metricsCounter(t, c, "serve.jobs.queued"), metricsCounter(t, c, "serve.jobs.running"); q != 1 || r != 1 {
		t.Fatalf("queued/running = %d/%d with two jobs waiting, want 1/1", q, r)
	}
	close(release)
	for _, id := range []string{r1.ID, r2.ID} {
		if _, err := c.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if q, r := metricsCounter(t, c, "serve.jobs.queued"), metricsCounter(t, c, "serve.jobs.running"); q != 0 || r != 0 {
		t.Fatalf("queued/running = %d/%d after release, want 0/0", q, r)
	}
}
