package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLitmusRunStopsOnCancel: a litmus enumeration checks its context
// between programs, so canceling a k=4 sweep (seconds of exploration
// on one worker) stops Run within a second with the context's error.
// The cancel comes once the sweep has polled the context, so the clock
// runs during exploration, not during the enumeration before it.
func TestLitmusRunStopsOnCancel(t *testing.T) {
	r := Request{Suite: "litmus", Enumerate: true, K: 4}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &pollCtx{Context: parent, polled: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, Env{Parallel: 1})
		done <- err
	}()
	select {
	case <-ctx.polled:
	case err := <-done:
		t.Fatalf("Run returned %v without checking its context", err)
	}
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a canceled k=4 enumeration did not stop within 1s")
	}
}

// TestFuzzRunCanceledIsAnError: failed fuzz cells are data, but a
// canceled campaign did not run its cells, so Run must return the
// context's error rather than a report the server would cache.
func TestFuzzRunCanceledIsAnError(t *testing.T) {
	r := Request{Suite: "fuzz", Seeds: "1:3"}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := r.Run(ctx, Env{Parallel: 1}); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Run on a canceled context = %v, %v; want nil, context.Canceled", res, err)
	}
}

// pollCtx closes polled the first time its Err is called.
type pollCtx struct {
	context.Context
	once   sync.Once
	polled chan struct{}
}

func (c *pollCtx) Err() error {
	c.once.Do(func() { close(c.polled) })
	return c.Context.Err()
}

// FuzzNormalize feeds JSON-decoded requests, as handleSubmit receives
// them (unknown fields refused), to Normalize. It must never panic, and
// a request it accepts must name only fields its suite uses in its
// canonical JSON and be a fixed point: normalizing it again succeeds
// and changes neither the request nor its content address, and listing
// its cells returns.
func FuzzNormalize(f *testing.F) {
	for _, body := range []string{
		`{"suite":"intra"}`,
		`{"suite":"all","scale":"bench","coherence":true,"metrics":true,"seed":7}`,
		`{"suite":"intra","workloads":["fft","barnes","fft"],"seed":3}`,
		`{"suite":"manycore","blocks":128,"cores_per_block":8,"workloads":["jacobi"]}`,
		`{"suite":"litmus","test":"sb","config":"Base","budget":3}`,
		`{"suite":"litmus","enumerate":true,"k":5}`,
		`{"suite":"litmus","k":7}`,
		`{"suite":"overhead"}`,
		`{"suite":"fuzz"}`,
		`{"suite":"fuzz","seeds":"05:9","mutants":3,"config":"B+M"}`,
		// Refused: a reversed, empty or oversized seed range, a negative
		// mutant count, fuzz fields on the other suites, and the other
		// suites' fields on fuzz.
		`{"suite":"fuzz","seeds":"9:3"}`,
		`{"suite":"fuzz","seeds":"3:3"}`,
		`{"suite":"fuzz","seeds":"0:18446744073709551615"}`,
		`{"suite":"fuzz","mutants":-1}`,
		`{"suite":"litmus","seeds":"1:3"}`,
		`{"suite":"intra","mutants":2}`,
		`{"suite":"fuzz","scale":"test","k":3}`,
		`{"suite":"fuzz","test":"sb"}`,
		// Oversized inputs: each used to list, build or allocate an unbounded
		// computation.
		`{"suite":"manycore","blocks":9223372036854775807}`,
		`{"suite":"manycore","blocks":2,"cores_per_block":9223372036854775807}`,
		`{"suite":"litmus","enumerate":true,"k":9223372036854775807}`,
		`{"suite":"fuzz","mutants":1000000000000}`,
		// Refused: the deleted fault-plan field.
		`{"suite":"intra","workloads":["fft","barnes","fft"],"faults":"delay-wb@64; drop-wb@16"}`,
		// Accepted: an empty list is absent from the canonical JSON.
		`{"suite":"overhead","workloads":[]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var r Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&r) != nil || r.Normalize() != nil {
			return
		}
		canonical, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var set map[string]json.RawMessage
		if err := json.Unmarshal(canonical, &set); err != nil {
			t.Fatal(err)
		}
		for field := range set {
			if !Uses(r.Suite, field) {
				t.Fatalf("accepted %s names %s, which suite %s does not use", canonical, field, r.Suite)
			}
		}
		once := r
		once.Workloads = slices.Clone(r.Workloads)
		key := r.Key()
		if err := r.Normalize(); err != nil {
			t.Fatalf("second Normalize of %+v: %v", once, err)
		}
		if !reflect.DeepEqual(r, once) {
			t.Fatalf("second Normalize changed the request:\n%+v\n%+v", once, r)
		}
		if r.Key() != key {
			t.Fatalf("second Normalize moved the key of %+v", r)
		}
		r.cells(r.Workloads)
	})
}

// TestSuiteFieldsTable: the scope table names only real Request fields
// and suites Normalize computes, and every field but suite is used by
// some suite, so none is dead weight in the content address.
func TestSuiteFieldsTable(t *testing.T) {
	tags := requestFields()
	for suite, fields := range suiteFields {
		for _, name := range strings.Fields(fields) {
			if _, ok := tags[name]; !ok {
				t.Errorf("suite %s uses %q, which is no Request field", suite, name)
			}
		}
		r := Request{Suite: suite}
		if Uses(suite, "blocks") {
			r.Blocks = 1
		}
		if err := r.Normalize(); err != nil {
			t.Errorf("suite %s: Normalize refuses its minimal request: %v", suite, err)
		}
	}
	for name := range tags {
		used := false
		for suite := range suiteFields {
			used = used || Uses(suite, name)
		}
		if !used {
			t.Errorf("Request field %q is used by no suite", name)
		}
	}
	if Uses("nonesuch", "suite") {
		t.Error("an unknown suite uses suite")
	}
}

// requestFields maps each Request field's JSON name to the field.
func requestFields() map[string]reflect.StructField {
	fields := map[string]reflect.StructField{}
	for _, f := range reflect.VisibleFields(reflect.TypeFor[Request]()) {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		fields[name] = f
	}
	return fields
}
