// Content-addressed result cache. The simulator is deterministic: a
// cell's outcome is a pure function of its workload, configuration,
// topology, scale, fault plan, seed, the result-affecting options, and
// the code that ran it. CellKey captures exactly that tuple and hashes
// its canonical JSON form, so two sweeps that would compute the same
// bytes share one content address — no matter how many workers ran
// them, in what order their flags were spelled, or in what order an
// options map was populated (json.Marshal sorts map keys).
//
// Orchestration options (worker count, timeouts) are deliberately
// absent from the key: they cannot change a deterministic cell's
// outcome, only how fast it is computed.

package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sync"
)

// CellKey identifies one simulation cell by everything that determines
// its outcome.
type CellKey struct {
	// Workload and Config are the cell's grid labels ("fft", "B+M+I").
	Workload string `json:"workload"`
	Config   string `json:"config"`
	// Topology names the machine the sweep builds ("intra", "inter",
	// "manycore/8" for 8 cores per block).
	Topology string `json:"topology"`
	// Scale is the problem scale ("test", "bench").
	Scale string `json:"scale"`
	// Faults is the canonical fault plan, empty for clean runs.
	Faults string `json:"faults,omitempty"`
	// Seed is the run's random seed. Current workloads are
	// deterministic and ignore it, but it participates in the address
	// so stochastic workloads can join the scheme without invalidating
	// the keying discipline.
	Seed int64 `json:"seed,omitempty"`
	// Options is the result-affecting option subset, as a string map
	// ("coherence", "metrics"). json.Marshal sorts the keys, so
	// insertion order cannot perturb the hash.
	Options map[string]string `json:"options,omitempty"`
	// CodeVersion pins the address to the simulator build that computed
	// the outcome (see CodeVersion()); a new revision never reuses old
	// bytes.
	CodeVersion string `json:"code_version"`
}

// Hash returns the cell's content address: the hex SHA-256 of the key's
// canonical JSON encoding.
func (k CellKey) Hash() string {
	b, err := json.Marshal(k)
	if err != nil {
		// A struct of strings, an int64, and a string map cannot fail
		// to marshal.
		panic(fmt.Sprintf("runner: CellKey marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

var (
	codeVersionOnce sync.Once
	codeVersion     string
)

// CodeVersion identifies the simulator build for cache addressing: the
// VCS revision stamped into the binary (suffixed "+dirty" when the
// working tree was modified), the module version for released builds,
// or "unknown" when the build carries neither (go test binaries).
func CodeVersion() string {
	codeVersionOnce.Do(func() {
		codeVersion = "unknown"
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		switch {
		case rev != "":
			codeVersion = rev
			if modified == "true" {
				codeVersion += "+dirty"
			}
		case bi.Main.Version != "" && bi.Main.Version != "(devel)":
			codeVersion = bi.Main.Version
		}
	})
	return codeVersion
}

// MemCache is the in-memory result cache that sweep task bodies consult
// before they simulate: a hit returns the cell's outcome without
// building a hierarchy or stepping the engine. It is safe for concurrent
// use and counts hits and misses; cached outcomes are shared and must be
// treated as immutable by callers.
type MemCache struct {
	mu     sync.Mutex
	m      map[string]*Outcome
	hits   int64
	misses int64
}

// NewMemCache returns an empty in-memory cache.
func NewMemCache() *MemCache {
	return &MemCache{m: make(map[string]*Outcome)}
}

// Get returns the outcome stored under key and counts the hit or miss.
func (c *MemCache) Get(key string) (*Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return out, ok
}

// Put stores out under key.
func (c *MemCache) Put(key string, out *Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = out
}

// Hits returns how many Get calls found an entry.
func (c *MemCache) Hits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns how many Get calls found nothing.
func (c *MemCache) Misses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// Len returns the number of stored outcomes.
func (c *MemCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
