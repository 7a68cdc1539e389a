// Package stats holds the measurement vocabulary shared by the simulators:
// stall categories matching the paper's Figure 9 breakdown, network traffic
// classes matching Figure 10, and normalized stacked-bar figures that
// render as the text rows the paper plots and encode as the figures of
// the JSON results documents.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// StallKind classifies where a thread's cycles went. The first five match
// the paper's Figure 9 categories; Flag waits are tracked separately and
// folded into Lock for rendering (the paper's applications treat flag
// spinning as lock-like synchronization stall).
type StallKind int

const (
	// Busy is computation plus pipelined memory access ("rest of the
	// execution" in Figure 9).
	Busy StallKind = iota
	// INVStall is exposed latency of self-invalidation instructions.
	INVStall
	// WBStall is exposed latency of writeback instructions.
	WBStall
	// LockStall is time spent waiting for lock acquires.
	LockStall
	// BarrierStall is time spent waiting at barriers.
	BarrierStall
	// FlagStall is time spent waiting on condition flags (reported under
	// LockStall in figure output).
	FlagStall
	// MemStall is exposed cache-miss latency (part of "rest" in the paper's
	// breakdown but kept separate internally for diagnosis).
	MemStall

	NumStallKinds
)

var stallNames = [...]string{"busy", "inv", "wb", "lock", "barrier", "flag", "mem"}

func (k StallKind) String() string {
	if k < 0 || int(k) >= len(stallNames) {
		return fmt.Sprintf("stall(%d)", int(k))
	}
	return stallNames[k]
}

// Stalls accumulates cycles per stall category.
type Stalls [NumStallKinds]int64

// Add accumulates cycles into category k.
func (s *Stalls) Add(k StallKind, cycles int64) { s[k] += cycles }

// Total returns the sum over all categories.
func (s *Stalls) Total() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// Merge adds o into s.
func (s *Stalls) Merge(o *Stalls) {
	for i := range s {
		s[i] += o[i]
	}
}

// Figure9 returns the five-category breakdown used by the paper's Figure 9:
// INV stall, WB stall, lock stall (including flag waits), barrier stall, and
// rest (busy plus exposed miss latency).
func (s *Stalls) Figure9() (inv, wb, lock, barrier, rest int64) {
	return s[INVStall], s[WBStall], s[LockStall] + s[FlagStall], s[BarrierStall], s[Busy] + s[MemStall]
}

// TrafficClass classifies network flits. The first four match the paper's
// Figure 10 breakdown; Sync covers uncacheable synchronization requests,
// which Figure 10 omits.
type TrafficClass int

const (
	// Linefill is data brought into a cache on a read or write miss.
	Linefill TrafficClass = iota
	// Writeback is dirty data pushed toward a shared cache (explicit WB
	// instructions, evictions, and directory-forced downgrades).
	Writeback
	// Invalidation is coherence invalidation requests and acknowledgments
	// (hardware-coherent configurations only; self-invalidation is local
	// and generates none).
	Invalidation
	// MemoryTraffic is traffic between the last-level cache and off-chip
	// memory.
	MemoryTraffic
	// SyncTraffic is uncacheable synchronization requests and grants.
	SyncTraffic

	NumTrafficClasses
)

var trafficNames = [...]string{"linefill", "writeback", "invalidation", "memory", "sync"}

func (c TrafficClass) String() string {
	if c < 0 || int(c) >= len(trafficNames) {
		return fmt.Sprintf("traffic(%d)", int(c))
	}
	return trafficNames[c]
}

// Traffic accumulates 128-bit flits per class.
type Traffic [NumTrafficClasses]int64

// Add accumulates flits into class c.
func (t *Traffic) Add(c TrafficClass, flits int64) { t[c] += flits }

// Total returns the flit count over all classes.
func (t *Traffic) Total() int64 {
	var n int64
	for _, v := range t {
		n += v
	}
	return n
}

// Figure10 returns the four-class breakdown of the paper's Figure 10
// (linefill, writeback, invalidation, memory), excluding sync traffic.
func (t *Traffic) Figure10() (linefill, writeback, invalidation, memory int64) {
	return t[Linefill], t[Writeback], t[Invalidation], t[MemoryTraffic]
}

// Counters is a named bag of monotonically increasing event counts used by
// the hierarchies for protocol-level events (hits, misses, WBs issued,
// lines invalidated, MEB overflows, ...).
type Counters struct {
	m map[string]int64
}

// NewCounters returns an empty counter bag.
func NewCounters() *Counters { return &Counters{m: make(map[string]int64)} }

// Inc adds n to counter name.
func (c *Counters) Inc(name string, n int64) { c.m[name] += n }

// Get returns counter name (zero if never incremented).
func (c *Counters) Get(name string) int64 { return c.m[name] }

// Reset zeroes every counter, keeping the bag's storage.
func (c *Counters) Reset() { clear(c.m) }

// Names returns all counter names in sorted order.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.m))
	for k := range c.m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Merge adds all of o's counters into c.
func (c *Counters) Merge(o *Counters) {
	for k, v := range o.m {
		c.m[k] += v
	}
}

// Bar is one stacked bar of a normalized figure: a label plus segment
// values in the figure's category order. Total is the bar's encoded
// height: a results document fills it from Height when it is built,
// and everything that reads a bar calls Height instead.
type Bar struct {
	Label    string    `json:"label"`
	Segments []float64 `json:"segments"`
	Total    float64   `json:"total"`
}

// Height returns the bar's total height. Non-finite segments (NaN or
// ±Inf, e.g. from a normalization against a zero baseline) count as
// zero, so one bad cell cannot poison a figure's totals or scaling.
func (b Bar) Height() float64 {
	var h float64
	for _, s := range b.Segments {
		h += finite(s)
	}
	return h
}

// finite maps NaN and ±Inf to zero; every renderer and aggregate in
// this package reads segment values through it.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Figure is a reproduction of one of the paper's normalized stacked-bar
// figures: groups of bars (one group per application), each normalized
// to the group's reference bar. It renders as a text table and is the
// JSON form of a results document's figures.
type Figure struct {
	// ID names the paper artifact ("figure9" ... "figure12",
	// "manycore").
	ID         string   `json:"id"`
	Title      string   `json:"title"`
	Categories []string `json:"categories"`
	Groups     []Group  `json:"groups"`
}

// Group is one application's set of bars.
type Group struct {
	Name string `json:"name"`
	Bars []Bar  `json:"bars"`
}

// Render prints the figure as a fixed-width text table: one row per bar,
// with per-category segments and the total, all normalized values.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-16s %-10s", "app", "config")
	for _, c := range f.Categories {
		fmt.Fprintf(&b, " %10s", c)
	}
	fmt.Fprintf(&b, " %10s\n", "total")
	for _, g := range f.Groups {
		for _, bar := range g.Bars {
			fmt.Fprintf(&b, "%-16s %-10s", g.Name, bar.Label)
			for _, s := range bar.Segments {
				fmt.Fprintf(&b, " %10.3f", finite(s))
			}
			fmt.Fprintf(&b, " %10.3f\n", bar.Height())
		}
	}
	return b.String()
}

// MeanTotals returns the arithmetic mean of bar totals per label, matching
// how the paper's "Average" group is computed in Figures 9-12.
func (f *Figure) MeanTotals() map[string]float64 {
	sum := make(map[string]float64)
	n := make(map[string]int)
	for _, g := range f.Groups {
		for _, bar := range g.Bars {
			sum[bar.Label] += bar.Height()
			n[bar.Label]++
		}
	}
	out := make(map[string]float64, len(sum))
	for label, s := range sum {
		out[label] = s / float64(n[label])
	}
	return out
}
