package runner

import "testing"

func baseKey() CellKey {
	return CellKey{
		Workload: "fft", Config: "B+M+I",
		Topology: "intra", Scale: "test",
		Faults: "", Seed: 0,
		Options:     map[string]string{"coherence": "1", "metrics": "1"},
		CodeVersion: "abc123",
	}
}

func TestCellKeyHashStable(t *testing.T) {
	if a, b := baseKey().Hash(), baseKey().Hash(); a != b {
		t.Errorf("identical keys hash differently: %s vs %s", a, b)
	}
}

// TestCellKeyHashIgnoresMapOrder populates the options map in two
// different insertion orders; json.Marshal's sorted keys must make the
// addresses identical.
func TestCellKeyHashIgnoresMapOrder(t *testing.T) {
	a := baseKey()
	a.Options = map[string]string{}
	a.Options["coherence"] = "1"
	a.Options["metrics"] = "1"
	b := baseKey()
	b.Options = map[string]string{}
	b.Options["metrics"] = "1"
	b.Options["coherence"] = "1"
	if a.Hash() != b.Hash() {
		t.Errorf("insertion order perturbed the hash: %s vs %s", a.Hash(), b.Hash())
	}
}

// TestCellKeyHashSeparatesFields flips each outcome-determining field in
// turn; every mutation must move the content address.
func TestCellKeyHashSeparatesFields(t *testing.T) {
	ref := baseKey().Hash()
	muts := map[string]func(*CellKey){
		"workload":     func(k *CellKey) { k.Workload = "lu" },
		"config":       func(k *CellKey) { k.Config = "HCC" },
		"topology":     func(k *CellKey) { k.Topology = "inter" },
		"scale":        func(k *CellKey) { k.Scale = "bench" },
		"faults":       func(k *CellKey) { k.Faults = "drop-wb@3" },
		"seed":         func(k *CellKey) { k.Seed = 7 },
		"options":      func(k *CellKey) { delete(k.Options, "metrics") },
		"code_version": func(k *CellKey) { k.CodeVersion = "def456" },
	}
	for name, mut := range muts {
		k := baseKey()
		mut(&k)
		if k.Hash() == ref {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
}

func TestMemCacheAccounting(t *testing.T) {
	c := NewMemCache()
	if _, ok := c.Get("k"); ok {
		t.Fatal("empty cache reported a hit")
	}
	out := &Outcome{}
	c.Put("k", out)
	got, ok := c.Get("k")
	if !ok || got != out {
		t.Fatal("stored outcome not returned")
	}
	if c.Hits() != 1 || c.Misses() != 1 || c.Len() != 1 {
		t.Errorf("accounting: hits=%d misses=%d len=%d, want 1/1/1", c.Hits(), c.Misses(), c.Len())
	}
}

func TestCodeVersionNonEmptyAndStable(t *testing.T) {
	v := CodeVersion()
	if v == "" {
		t.Fatal("CodeVersion is empty")
	}
	if v2 := CodeVersion(); v2 != v {
		t.Errorf("CodeVersion unstable: %q then %q", v, v2)
	}
}
