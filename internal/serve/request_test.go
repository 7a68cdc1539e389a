package serve

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// FuzzNormalize feeds JSON-decoded requests, as handleSubmit receives
// them, to Normalize. It must never panic, and a request it accepts
// must be a fixed point: normalizing it again succeeds and changes
// neither the request nor its content address, and listing its cells
// returns.
func FuzzNormalize(f *testing.F) {
	for _, body := range []string{
		`{"suite":"intra"}`,
		`{"suite":"all","scale":"bench","coherence":true,"metrics":true,"seed":7}`,
		`{"suite":"intra","workloads":["fft","barnes","fft"],"faults":"delay-wb@64; drop-wb@16"}`,
		`{"suite":"manycore","blocks":128,"cores_per_block":8,"workloads":["jacobi"]}`,
		`{"suite":"litmus","test":"sb","config":"Base","budget":3}`,
		`{"suite":"litmus","enumerate":true,"k":5}`,
		`{"suite":"litmus","k":7}`,
		`{"suite":"overhead"}`,
		// Oversized inputs: each used to list or build an unbounded sweep.
		`{"suite":"manycore","blocks":9223372036854775807}`,
		`{"suite":"manycore","blocks":2,"cores_per_block":9223372036854775807}`,
		`{"suite":"litmus","enumerate":true,"k":9223372036854775807}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var r Request
		if json.Unmarshal(body, &r) != nil || r.Normalize() != nil {
			return
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
