package main

// serve-mix: an in-process sweep server behind httptest, driven by
// `workers` stock serve.Clients in closed loops. Each client owns its
// seeds, so every request's dependencies sit earlier in its own
// sequence. Requests are intra sweeps of two test-scale applications in
// three classes:
//
//   - cold: cells never computed under this seed, so the sweep store and
//     the cell cache both miss;
//   - cellwarm: a new pair of applications a seed has already run, so
//     the sweep store misses and every cell hits;
//   - warm: an exact resubmit, answered by the sweep store.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	hic "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

var serveClasses = []string{"cold", "cellwarm", "warm"}

// pollInterval is the clients' status poll cadence. The client's 50 ms
// default would round a cellwarm request up to 50 ms whenever its first
// poll beats the job, hiding the cost of assembling its document and
// making the request-time percentiles jump between the two cases.
const pollInterval = 2 * time.Millisecond

type serveReq struct {
	class string
	apps  [2]string // sorted, as the server normalizes them
	seed  int64
}

func (r serveReq) pair() string { return r.apps[0] + "," + r.apps[1] }

func sortedPair(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// serveSequence builds one client's request sequence. Every pair of
// applications is requested cold exactly once, so the simulation work is
// the same for every seed; the seed shuffles the pairs, couples each
// with a disjoint one under a shared seed, and after both have run
// requests the two pairs that cross them as cellwarm. Warm requests, 40%
// of the total, resubmit random cold or cellwarm ones. The order is a
// random interleaving that keeps each request after those it depends on.
func serveSequence(rng *rand.Rand, client int, apps []string) []serveReq {
	type item struct {
		req serveReq
		key float64
	}
	after := func(k float64) float64 { return k + rng.Float64()*(1-k) }
	var pairs [][2]string
	for i := range apps {
		for j := i + 1; j < len(apps); j++ {
			pairs = append(pairs, sortedPair(apps[i], apps[j]))
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	used := make([]bool, len(pairs))
	var items []item
	for i, p := range pairs {
		if used[i] {
			continue
		}
		used[i] = true
		seed := int64(client+1)*100000 + int64(i)
		c1 := item{serveReq{"cold", p, seed}, rng.Float64()}
		items = append(items, c1)
		for j := i + 1; j < len(pairs); j++ {
			q := pairs[j]
			if used[j] || p[0] == q[0] || p[0] == q[1] || p[1] == q[0] || p[1] == q[1] {
				continue
			}
			used[j] = true
			c2 := item{serveReq{"cold", q, seed}, after(c1.key)}
			if rng.IntN(2) == 1 {
				q[0], q[1] = q[1], q[0]
			}
			items = append(items, c2,
				item{serveReq{"cellwarm", sortedPair(p[0], q[0]), seed}, after(c2.key)},
				item{serveReq{"cellwarm", sortedPair(p[1], q[1]), seed}, after(c2.key)})
			break
		}
	}
	n := len(items)
	for i := 0; i < (2*n+1)/3; i++ {
		t := items[rng.IntN(n)]
		items = append(items, item{serveReq{"warm", t.req.apps, t.req.seed}, after(t.key)})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].key < items[j].key })
	seq := make([]serveReq, len(items))
	for i, it := range items {
		seq[i] = it.req
	}
	return seq
}

// setupServe builds the clients' sequences and the local reference
// document of every pair they request. Documents do not depend on the
// seed, so one cell cache serves all of them.
func setupServe(cfg config) (*instance, error) {
	apps := cfg.size.serveApps
	if len(apps) == 0 {
		for _, w := range hic.IntraWorkloads(hic.ScaleTest) {
			apps = append(apps, w.Name)
		}
	}
	if len(apps) < 4 {
		return nil, fmt.Errorf("serve-mix needs at least 4 applications, got %d", len(apps))
	}
	seqs := make([][]serveReq, workers)
	for c := range seqs {
		seqs[c] = serveSequence(rand.New(rand.NewPCG(uint64(cfg.seed), uint64(c))), c, apps)
	}
	cells := hic.NewMemCache()
	refs := map[string][]byte{}
	for _, seq := range seqs {
		for _, r := range seq {
			if refs[r.pair()] != nil {
				continue
			}
			res, err := hic.RunIntra(context.Background(), hic.ScaleTest,
				hic.WithOnly(r.apps[:]...), hic.WithCache(cells), hic.WithParallel(workers))
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := res.Document(hic.ScaleTest).Encode(&buf); err != nil {
				return nil, err
			}
			refs[r.pair()] = buf.Bytes()
		}
	}
	return &instance{run: func(ctx context.Context, tr *tracer) (*pass, error) {
		return servePass(ctx, tr, seqs, refs)
	}}, nil
}

// servePass starts a fresh server (empty caches), runs every client's
// sequence to completion, and checks each body against its reference.
func servePass(ctx context.Context, tr *tracer, seqs [][]serveReq, refs map[string][]byte) (*pass, error) {
	srv, err := serve.New(serve.Config{Workers: workers, Parallel: 1})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}
	if tr != nil {
		hc.Transport = &timedTransport{next: transport, tr: tr}
	}

	p := &pass{classMS: map[string][]float64{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &serve.Client{BaseURL: ts.URL, Tenant: fmt.Sprintf("client-%d", c), HTTP: hc, PollInterval: pollInterval}
			for _, r := range seq {
				t0 := time.Now()
				body, err := cl.Run(ctx, serve.Request{Suite: "intra", Scale: "test", Workloads: r.apps[:], Seed: r.seed})
				d := ms(time.Since(t0))
				mu.Lock()
				p.itemMS = append(p.itemMS, d)
				p.classMS[r.class] = append(p.classMS[r.class], d)
				switch {
				case err != nil:
					p.fail("%s request %s seed %d: %v", r.class, r.pair(), r.seed, err)
				case !bytes.Equal(body, refs[r.pair()]):
					p.fail("%s request %s seed %d: served document differs from the local one", r.class, r.pair(), r.seed)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	if tr != nil {
		if err := serverCounters(ctx, hc, ts.URL, tr); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// serverCounters adds the server's /v2/metrics counters to tr.
func serverCounters(ctx context.Context, hc *http.Client, url string, tr *tracer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v2/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("decode /v2/metrics: %w", err)
	}
	for k, v := range snap.Counters {
		tr.add(k, float64(v))
	}
	tr.add("serve.rejected", float64(snap.Counters["serve.rejected.queue_full"]+snap.Counters["serve.rejected.tenant_limit"]))
	return nil
}

// timedTransport times each HTTP round trip to the server and counts
// status polls.
type timedTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	d := ms(time.Since(start))
	switch path := req.URL.Path; {
	case req.Method == http.MethodPost:
		t.tr.sample("serve.submit_ms", d)
	case strings.HasSuffix(path, "/result"):
		t.tr.sample("serve.result_ms", d)
	case strings.HasPrefix(path, "/v2/sweeps/"):
		t.tr.add("serve.polls", 1)
	}
	return resp, err
}
