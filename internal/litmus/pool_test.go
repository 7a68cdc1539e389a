package litmus

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// poolCase is one (test, config) exploration.
type poolCase struct {
	test Test
	cfg  Config
}

func (c poolCase) String() string { return c.test.Name + "/" + c.cfg.Name }

// poolCases is Suite plus ExtraSuite under every configuration: every
// machine shape the pool keys on, warmed by tests of different thread and
// register counts.
func poolCases() []poolCase {
	var cases []poolCase
	for _, tc := range append(slices.Clone(Suite), ExtraSuite...) {
		for _, cfg := range allConfigs {
			cases = append(cases, poolCase{tc, cfg})
		}
	}
	return cases
}

func explorePoolCase(c poolCase) (*Report, error) {
	rep, err := Explore(c.test, c.cfg, Options{})
	if err != nil {
		return nil, fmt.Errorf("%v: %w", c, err)
	}
	return rep, nil
}

// TestMachinePoolIsolation: a pooled machine must carry nothing from one
// exploration into the next. Every case explored forward, then in
// reverse (so each draws a machine last used by a different test), and
// then from several goroutines at once must produce deep-equal reports.
func TestMachinePoolIsolation(t *testing.T) {
	cases := poolCases()
	forward := make([]*Report, len(cases))
	for i, c := range cases {
		rep, err := explorePoolCase(c)
		if err != nil {
			t.Fatal(err)
		}
		forward[i] = rep
	}
	for i := len(cases) - 1; i >= 0; i-- {
		rep, err := explorePoolCase(cases[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, forward[i]) {
			t.Errorf("%v: reversed-order report differs from forward-order report", cases[i])
		}
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at a different offset so concurrent
			// explorations of the same shape overlap.
			for k := range cases {
				i := (k + w*len(cases)/workers) % len(cases)
				rep, err := explorePoolCase(cases[i])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(rep, forward[i]) {
					errs <- fmt.Errorf("%v: concurrent report differs from sequential report", cases[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
